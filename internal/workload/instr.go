package workload

// Instruction microbenchmarks for the PLATYPUS-style experiment (§VII-F,
// Fig 15). The paper runs tight loops of single instructions — imul, mov,
// xor — and shows their average power profiles are distinguishable on the
// baseline machine but indistinguishable under Maya GS. Execution-unit
// switching activity differs per instruction: the integer multiplier
// toggles far more capacitance per cycle than a register move or xor,
// which is exactly the per-instruction power difference PLATYPUS measures
// through RAPL.

// InstrNames lists the microbenchmark labels (order: imul, mov, xor).
var InstrNames = []string{"imul", "mov", "xor"}

// instrActivity is the per-instruction switching-activity factor. The
// ordering imul > mov > xor follows published instruction-level energy
// characterizations (wide multiplier array vs bypass network traffic vs
// simple ALU op).
var instrActivity = map[string]float64{
	"imul": 0.92,
	"mov":  0.64,
	"xor":  0.55,
}

// NewInstrLoop returns a tight single-instruction loop pinned on every
// core, running for the given work amount (giga-operations). It panics on
// an unknown instruction name.
func NewInstrLoop(name string, work float64) *Program {
	act, ok := instrActivity[name]
	if !ok {
		panic("workload: unknown instruction " + name)
	}
	return NewProgram("instr/"+name, []Phase{
		{Name: "loop", Work: work, Threads: 6, Activity: act, MemFrac: 0.02, JitterFrac: 0.01},
	})
}
