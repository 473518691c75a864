package fleet_test

import (
	"sync/atomic"
	"testing"

	"github.com/maya-defense/maya/internal/control"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

const benchTenants = 1000

func benchDesign(b *testing.B) *core.Design {
	b.Helper()
	art, err := difftest.DesignFor(sim.Sys1())
	if err != nil {
		b.Fatal(err)
	}
	return art
}

func benchDeltas(n int) []float64 {
	r := rng.NewNamed(1, "fleet/bench")
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Uniform(-3, 3)
	}
	return out
}

// BenchmarkFleetControllerStepBatched measures one control decision's
// controller arithmetic for 1000 tenants: control.Bank.StepAll, which is
// 1000 Controller.Step calls on the Sys1 design. The name is kept from the
// structure-of-arrays kernel it used to time, so the committed baseline
// keeps its row.
func BenchmarkFleetControllerStepBatched(b *testing.B) {
	art := benchDesign(b)
	bank := control.NewBank(art.Controller, benchTenants)
	deltas := benchDeltas(benchTenants)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.StepAll(deltas, nil)
	}
}

func benchSpec(art *core.Design, ticks int) fleet.Spec {
	cfg := sim.Sys1()
	g := core.DefaultGuard(cfg)
	return fleet.Spec{
		Config:      cfg,
		Kind:        defense.MayaGS,
		Art:         art,
		PeriodTicks: 20,
		Tenants:     benchTenants,
		BaseSeed:    7,
		NewWorkload: func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.02) },
		Guard:       &g,
		MaxTicks:    ticks,
	}
}

// BenchmarkFleetTickBatched measures a full control period — 20 machine
// ticks, sensor reads, every tenant's decision, actuation — for 1000 tenants
// through the fleet engine. Construction is excluded; each iteration runs
// a fresh 10-period fleet so the cost reported per op is 10 periods of
// steady-state work.
func BenchmarkFleetTickBatched(b *testing.B) {
	art := benchDesign(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := fleet.New(benchSpec(art, 200))
		b.StartTimer()
		eng.Run()
	}
}

// BenchmarkFleetTickScalar is the reference for BenchmarkFleetTickBatched:
// the same 1000 tenants over the same 10 control periods, each run
// independently through the scalar sim.Run/core.Engine path.
func BenchmarkFleetTickScalar(b *testing.B) {
	art := benchDesign(b)
	cfg := sim.Sys1()
	d := defense.NewDesign(defense.MayaGS, cfg, art, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		machines := make([]*sim.Machine, benchTenants)
		works := make([]workload.Workload, benchTenants)
		pols := make([]sim.Policy, benchTenants)
		for t := 0; t < benchTenants; t++ {
			ms, ws, ps, _ := fleet.TenantSeeds(7, t)
			machines[t] = sim.NewMachine(cfg, ms)
			works[t] = workload.NewApp("blackscholes").Scale(0.02)
			works[t].Reset(ws)
			pol := d.Policy(ps)
			g := core.DefaultGuard(cfg)
			pol.(*core.Engine).SetGuard(&g)
			pols[t] = pol
		}
		b.StartTimer()
		for t := 0; t < benchTenants; t++ {
			sim.Run(machines[t], works[t], pols[t], sim.RunSpec{ControlPeriodTicks: 20, MaxTicks: 200})
		}
	}
}

// BenchmarkFleetBankOfOne steps banks of one tenant the way mayad's pass
// steps fleet-mixed: GOMAXPROCS goroutines, each stepping its own Maya GS
// bank (sys1, blackscholes at scale 0.2, 500 periods, then a fresh bank),
// with every bank counting into one shared fleet.Metrics ("attached") or
// into none ("detached"). One op is one tenant-period, so the gap between
// the two is what the fleet's own accounting costs a bank of one.
func BenchmarkFleetBankOfOne(b *testing.B) {
	art := benchDesign(b)
	cfg := sim.Sys1()
	for _, attach := range []bool{true, false} {
		name := "detached"
		if attach {
			name = "attached"
		}
		b.Run(name, func(b *testing.B) {
			var m *fleet.Metrics
			if attach {
				m = fleet.NewMetrics(telemetry.NewRegistry())
			}
			var seeds atomic.Uint64
			bank := func() *fleet.Engine {
				eng := fleet.New(fleet.Spec{
					Config:         cfg,
					Kind:           defense.MayaGS,
					Art:            art,
					PeriodTicks:    20,
					Tenants:        1,
					BaseSeed:       seeds.Add(1),
					NewWorkload:    func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.2) },
					MaxTicks:       500 * 20,
					SkipTickTraces: true,
				})
				eng.SetMetrics(m)
				eng.Start()
				return eng
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				eng := bank()
				for pb.Next() {
					if !eng.StepPeriod() {
						eng.Results()
						eng = bank()
					}
				}
			})
		})
	}
}
