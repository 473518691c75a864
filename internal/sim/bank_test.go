package sim

import (
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/workload"
)

// TestMachineBankMatchesMachine pins every tenant of a MachineBank
// bit-for-bit against a scalar Machine with the same seed, including the
// RAPL sensor view and the fault hooks (input filter, lag scale, energy
// wrap) on a subset of tenants.
func TestMachineBankMatchesMachine(t *testing.T) {
	for _, cfg := range []Config{Sys1(), Sys2(), Sys3()} {
		t.Run(cfg.Name, func(t *testing.T) {
			const T, ticks = 5, 600
			seeds := []uint64{11, 22, 33, 44, 55}

			bank := NewMachineBank(cfg, seeds)
			machines := make([]*Machine, T)
			bankW := make([]workload.Workload, T)
			scalW := make([]workload.Workload, T)
			for ti := range machines {
				machines[ti] = NewMachine(cfg, seeds[ti])
				bw := workload.NewApp("blackscholes").Scale(0.05)
				bw.Reset(seeds[ti] + 100)
				sw := workload.NewApp("blackscholes").Scale(0.05)
				sw.Reset(seeds[ti] + 100)
				bankW[ti], scalW[ti] = bw, sw
			}

			// Fault hooks on tenants 1 and 3: a command filter that drops
			// every 7th command, a lag scale, and an energy wrap.
			drop := func(tick int64, commanded, current Inputs) Inputs {
				if tick%7 == 0 {
					return current
				}
				return commanded
			}
			bank.Tenant(1).SetInputFilter(drop)
			machines[1].SetInputFilter(drop)
			bank.Tenant(1).SetLagScale(3)
			machines[1].SetLagScale(3)
			bank.Tenant(3).SetEnergyWrap(0.5)
			machines[3].SetEnergyWrap(0.5)

			bankSensors := make([]*BankRAPLSensor, T)
			scalSensors := make([]*RAPLSensor, T)
			for ti := range bankSensors {
				bankSensors[ti] = bank.Sensor(ti)
				scalSensors[ti] = NewRAPLSensor(machines[ti])
			}

			r := rng.NewNamed(1, "test/bank-inputs")
			ins := make([]Inputs, T)
			out := make([]StepResult, T)
			for tick := 0; tick < ticks; tick++ {
				if tick%20 == 0 {
					for ti := range ins {
						ins[ti] = Inputs{
							FreqGHz: r.Uniform(cfg.FminGHz, cfg.FmaxGHz),
							Idle:    r.Uniform(0, 0.5),
							Balloon: r.Uniform(0, 1),
						}
					}
					bank.SetInputsAll(ins)
					for ti, m := range machines {
						m.SetInputs(ins[ti])
					}
					for ti := range machines {
						if bank.Inputs(ti) != machines[ti].Inputs() {
							t.Fatalf("tick %d tenant %d commanded inputs diverge: %+v vs %+v",
								tick, ti, bank.Inputs(ti), machines[ti].Inputs())
						}
					}
				}
				bank.StepAll(bankW, out)
				for ti, m := range machines {
					want := m.Step(scalW[ti])
					got := out[ti]
					for name, pair := range map[string][2]float64{
						"power": {got.PowerW, want.PowerW},
						"wall":  {got.WallW, want.WallW},
						"work":  {got.WorkDone, want.WorkDone},
						"temp":  {got.TempC, want.TempC},
					} {
						if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
							t.Fatalf("tick %d tenant %d %s: bank %x scalar %x",
								tick, ti, name, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
						}
					}
					if got.Finished != want.Finished {
						t.Fatalf("tick %d tenant %d finished flag diverges", tick, ti)
					}
					if math.Float64bits(bank.EnergyJ(ti)) != math.Float64bits(m.EnergyJ()) {
						t.Fatalf("tick %d tenant %d energy counter diverges", tick, ti)
					}
				}
				if tick%20 == 19 {
					for ti := range bankSensors {
						bw := bankSensors[ti].ReadW()
						sw := scalSensors[ti].ReadW()
						if math.Float64bits(bw) != math.Float64bits(sw) {
							t.Fatalf("tick %d tenant %d sensor read: bank %x scalar %x",
								tick, ti, math.Float64bits(bw), math.Float64bits(sw))
						}
					}
				}
			}
		})
	}
}

// TestMachineBankTenantIsolation checks a fault hook on one tenant leaves
// its neighbors bit-identical to an unfaulted fleet.
func TestMachineBankTenantIsolation(t *testing.T) {
	cfg := Sys1()
	seeds := []uint64{7, 8, 9}
	clean := NewMachineBank(cfg, seeds)
	faulted := NewMachineBank(cfg, seeds)
	faulted.Tenant(1).SetLagScale(10)
	faulted.Tenant(1).SetEnergyWrap(0.25)

	ws := make([]workload.Workload, 3)
	for i := range ws {
		ws[i] = workload.Idle{}
	}
	ins := []Inputs{
		{FreqGHz: 1.5, Idle: 0.2, Balloon: 0.4},
		{FreqGHz: 1.5, Idle: 0.2, Balloon: 0.4},
		{FreqGHz: 1.5, Idle: 0.2, Balloon: 0.4},
	}
	clean.SetInputsAll(ins)
	faulted.SetInputsAll(ins)
	outC := make([]StepResult, 3)
	outF := make([]StepResult, 3)
	for tick := 0; tick < 200; tick++ {
		clean.StepAll(ws, outC)
		faulted.StepAll(ws, outF)
		for _, ti := range []int{0, 2} {
			if math.Float64bits(outC[ti].PowerW) != math.Float64bits(outF[ti].PowerW) {
				t.Fatalf("tick %d: fault on tenant 1 leaked into tenant %d", tick, ti)
			}
		}
	}
	if math.Float64bits(outC[1].PowerW) == math.Float64bits(outF[1].PowerW) {
		t.Fatal("fault hooks on tenant 1 had no effect")
	}
}

// TestMachineBankStepRangeMatchesStepAll steps one bank a period at a time
// with StepAll and a twin range by range — each tenant range through the
// whole period before the next, then AdvanceClock — and requires
// identical power, energy, clock, and sensor reads: the contract the
// fleet engine's tenant-parallel machine phase rests on.
func TestMachineBankStepRangeMatchesStepAll(t *testing.T) {
	cfg := Sys1()
	seeds := []uint64{3, 1, 4, 1, 5}
	T := len(seeds)
	whole, ranged := NewMachineBank(cfg, seeds), NewMachineBank(cfg, seeds)
	works := func() []workload.Workload {
		ws := make([]workload.Workload, T)
		for i := range ws {
			w := workload.NewApp("blackscholes").Scale(0.05)
			w.Reset(uint64(i))
			ws[i] = w
		}
		return ws
	}
	wsWhole, wsRanged := works(), works()
	sWhole, sRanged := make([]*BankRAPLSensor, T), make([]*BankRAPLSensor, T)
	for i := range sWhole {
		sWhole[i], sRanged[i] = whole.Sensor(i), ranged.Sensor(i)
	}
	outWhole, outRanged := make([]StepResult, T), make([]StepResult, T)
	r := rng.NewNamed(2, "test/bank-ranges")
	ins := make([]Inputs, T)
	const period = 20
	for p := 0; p < 15; p++ {
		for i := range ins {
			ins[i] = Inputs{FreqGHz: r.Uniform(cfg.FminGHz, cfg.FmaxGHz), Idle: r.Uniform(0, 0.5), Balloon: r.Uniform(0, 1)}
		}
		whole.SetInputsAll(ins)
		ranged.SetInputsAll(ins)
		powWhole := make([][]float64, T)
		for k := 0; k < period; k++ {
			whole.StepAll(wsWhole, outWhole)
			for i, o := range outWhole {
				powWhole[i] = append(powWhole[i], o.PowerW)
			}
		}
		for _, rg := range [][2]int{{0, 2}, {2, 2}, {2, 5}} {
			for k := 0; k < period; k++ {
				ranged.StepRange(rg[0], rg[1], wsRanged, outRanged)
				for i := rg[0]; i < rg[1]; i++ {
					if math.Float64bits(outRanged[i].PowerW) != math.Float64bits(powWhole[i][k]) {
						t.Fatalf("period %d tick %d tenant %d: ranged power %x, whole %x",
							p, k, i, math.Float64bits(outRanged[i].PowerW), math.Float64bits(powWhole[i][k]))
					}
				}
			}
		}
		ranged.AdvanceClock(period)
		if ranged.Tick() != whole.Tick() {
			t.Fatalf("period %d: ranged clock %d, whole %d", p, ranged.Tick(), whole.Tick())
		}
		for i := 0; i < T; i++ {
			if a, b := sRanged[i].ReadW(), sWhole[i].ReadW(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("period %d tenant %d: ranged sensor %x, whole %x", p, i, math.Float64bits(a), math.Float64bits(b))
			}
			if math.Float64bits(ranged.EnergyJ(i)) != math.Float64bits(whole.EnergyJ(i)) {
				t.Fatalf("period %d tenant %d: energy counters diverge", p, i)
			}
		}
	}
}
