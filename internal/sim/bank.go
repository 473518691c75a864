package sim

import "github.com/maya-defense/maya/internal/workload"

// MachineBank holds T machines of one configuration in one contiguous
// slice: the fleet engine runs one Loop over each of its machines. Tenant
// t is exactly the Machine that NewMachine(cfg, seeds[t]) builds: it steps
// with Machine.Step, takes commands through Machine.SetInputs, and is read
// through a RAPLSensor, so the bank adds no model of its own. StepAll,
// StepRange, SetInputsAll and Inputs step and command the whole bank at
// once; the fleet engine calls none of them, and they remain for the
// benchmark module's fleet replay.
//
// Each machine keeps its own clock. StepRange touches only the range's
// machines, so disjoint ranges may step concurrently; the fault filters
// and the sensors read a machine's clock only at the period boundary,
// after every range has taken the period's steps.
type MachineBank struct {
	ms []Machine
}

// NewMachineBank builds T machines in their reset state, tenant t seeded
// with seeds[t].
func NewMachineBank(cfg Config, seeds []uint64) *MachineBank {
	if len(seeds) == 0 {
		panic("sim: NewMachineBank needs at least one tenant")
	}
	b := &MachineBank{ms: make([]Machine, len(seeds))}
	for t, seed := range seeds {
		b.ms[t].init(cfg, seed)
	}
	return b
}

// Machine returns tenant t's machine.
func (b *MachineBank) Machine(t int) *Machine { return &b.ms[t] }

// Inputs returns tenant t's currently commanded (quantized) settings.
func (b *MachineBank) Inputs(t int) Inputs { return b.ms[t].cmd }

// SetInputsAll commands new actuator settings, tenant t taking ins[t]
// through its machine's SetInputs.
func (b *MachineBank) SetInputsAll(ins []Inputs) {
	if len(ins) != len(b.ms) {
		panic("sim: SetInputsAll length mismatch")
	}
	for t, in := range ins {
		b.ms[t].SetInputs(in)
	}
}

// StepAll advances every tenant by one tick, tenant t running ws[t] and
// writing out[t].
func (b *MachineBank) StepAll(ws []workload.Workload, out []StepResult) {
	b.StepRange(0, len(b.ms), ws, out)
}

// StepRange advances tenants [lo, hi) by one tick, tenant t running ws[t]
// and writing out[t]; ws and out span the whole bank.
func (b *MachineBank) StepRange(lo, hi int, ws []workload.Workload, out []StepResult) {
	ms, ws, out := b.ms[lo:hi], ws[lo:hi], out[lo:hi]
	for t := range ms {
		out[t] = ms[t].Step(ws[t])
	}
}

// Sensor returns a RAPL sensor over tenant t's machine. Like any
// RAPLSensor, it takes its baseline energy and tick when it is built.
func (b *MachineBank) Sensor(t int) *RAPLSensor { return NewRAPLSensor(&b.ms[t]) }

// BankRAPLSensor is another name for RAPLSensor, the type MachineBank.Sensor
// returns; the benchmark module's fleet replay (_mayabench) refers to the
// sensor by this name.
type BankRAPLSensor = RAPLSensor
