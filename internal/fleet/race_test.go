package fleet_test

import (
	"io"
	"sync"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// TestFleetConcurrentObserver steps a fleet on one goroutine while a reader
// on another continuously snapshots and exports the telemetry registry.
// Under -race (the CI race job runs the whole tree) this proves the
// engine's concurrency contract: the registry's internal synchronization
// is the only seam with an outside goroutine, and the engine's state never
// leaks across it.
func TestFleetConcurrentObserver(t *testing.T) {
	const tenants, ticks = 64, 1000
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := core.DefaultGuard(cfg)
	eng := fleet.New(fleet.Spec{
		Config:      cfg,
		Kind:        defense.MayaGS,
		Art:         art,
		PeriodTicks: 20,
		Tenants:     tenants,
		BaseSeed:    0xace,
		NewWorkload: func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.02) },
		Guard:       &g,
		MaxTicks:    ticks,
	})
	reg := telemetry.NewRegistry()
	m := fleet.NewMetrics(reg)
	eng.SetMetrics(m)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			reg.Snapshot()
			if err := reg.WriteJSONL(io.Discard); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	results := eng.Run()
	close(done)
	wg.Wait()

	if len(results) != tenants {
		t.Fatalf("got %d tenant results, want %d", len(results), tenants)
	}
	if got, want := m.Periods.Value(), uint64(ticks/20); got != want {
		t.Fatalf("maya_fleet_periods_total = %d, want %d", got, want)
	}
}
