package sim

import (
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/workload"
)

// TestMachineBankTenantIsolation checks a fault hook on one tenant leaves
// its neighbors bit-identical to an unfaulted fleet.
func TestMachineBankTenantIsolation(t *testing.T) {
	cfg := Sys1()
	seeds := []uint64{7, 8, 9}
	clean := NewMachineBank(cfg, seeds)
	faulted := NewMachineBank(cfg, seeds)
	faulted.Machine(1).SetLagScale(10)
	faulted.Machine(1).SetEnergyWrap(0.25)

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
// whole period before the next — and requires identical power, energy,
// clock, and sensor reads: the contract the fleet engine's tenant-parallel
// machine phase rests on.
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
	sWhole, sRanged := make([]*RAPLSensor, T), make([]*RAPLSensor, T)
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
		for i := 0; i < T; i++ {
			if a, b := ranged.Machine(i).Tick(), whole.Machine(i).Tick(); a != b {
				t.Fatalf("period %d tenant %d: ranged clock %d, whole %d", p, i, a, b)
			}
			if a, b := sRanged[i].ReadW(), sWhole[i].ReadW(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("period %d tenant %d: ranged sensor %x, whole %x", p, i, math.Float64bits(a), math.Float64bits(b))
			}
			if math.Float64bits(ranged.Machine(i).EnergyJ()) != math.Float64bits(whole.Machine(i).EnergyJ()) {
				t.Fatalf("period %d tenant %d: energy counters diverge", p, i)
			}
		}
	}
}
