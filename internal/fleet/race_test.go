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
// on another continuously drains the spill buffer and snapshots/exports the
// telemetry registry. Under -race (the CI race job runs the whole tree)
// this proves the engine's concurrency contract: the spill mutex and the
// registry's internal synchronization are the only seams with an outside
// goroutine, and the engine's state never leaks across them.
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
	eng.SetMetrics(fleet.NewMetrics(reg))
	// Sized to the whole run, so the exact drained-sample count below holds
	// however slowly the reader drains.
	spill := fleet.NewSpill(tenants * (ticks / 20))
	eng.SetSpill(spill)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	drained := 0
	go func() {
		defer wg.Done()
		for {
			drained += len(spill.Drain())
			reg.Snapshot()
			if err := reg.WriteJSONL(io.Discard); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-done:
				drained += len(spill.Drain())
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
	// One sample per tenant per control period, all drained between
	// pushes or in the final sweep.
	if want := tenants * (ticks / 20); drained != want {
		t.Fatalf("drained %d samples, want %d", drained, want)
	}
}
