package fleet_test

import (
	"bytes"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

func churnSpec(t *testing.T, tenants int, seedAt func(int) (uint64, uint64, uint64, uint64)) fleet.Spec {
	t.Helper()
	cfg := sim.Sys1()
	art, err := difftest.DesignFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := core.DefaultGuard(cfg)
	return fleet.Spec{
		Config:         cfg,
		Kind:           defense.MayaGS,
		Art:            art,
		PeriodTicks:    20,
		Tenants:        tenants,
		BaseSeed:       0xc4a2,
		SeedAt:         seedAt,
		NewWorkload:    func() workload.Workload { return workload.NewApp("blackscholes").Scale(0.02) },
		Guard:          &g,
		FlightCapacity: 40/20 + 400/20 + 8,
		WarmupTicks:    40,
		MaxTicks:       400,
	}
}

// TestFleetEvictMidRunLeavesSurvivorsIdentical is the fleet-level half of
// the daemon's churn-determinism story: evicting a tenant mid-run (the
// slot's run is dropped: it stops stepping and its buffers are released)
// must leave every surviving tenant's full result — trace, targets,
// flight, inputs — byte-identical to the same fleet run with no eviction.
func TestFleetEvictMidRunLeavesSurvivorsIdentical(t *testing.T) {
	full := fleet.New(churnSpec(t, 4, nil)).Run()

	e := fleet.New(churnSpec(t, 4, nil))
	e.Start()
	periods := 0
	for {
		more := e.StepPeriod()
		periods++
		if periods == 10 {
			e.Evict(2)
		}
		if !more {
			break
		}
	}
	if e.Alive() != 3 {
		t.Fatalf("Alive = %d, want 3", e.Alive())
	}
	churned := e.Results()

	for _, tn := range []int{0, 1, 3} {
		assertTenantEqual(t, tn, churned[tn], full[tn])
	}
	if len(churned[2].DefenseSamples) != 0 || churned[2].Flight != nil {
		t.Fatalf("evicted slot retained buffers: %d samples", len(churned[2].DefenseSamples))
	}
}

// TestFleetSeedAtMatchesSoloRun pins the SeedAt override: a bank slot
// carrying TenantSeeds(S, I) must reproduce, bit for bit, tenant I of a
// plain BaseSeed=S fleet — the property cmd/mayad uses to pack tenants
// with unrelated identities into shared banks.
func TestFleetSeedAtMatchesSoloRun(t *testing.T) {
	const base, index = 0x5eed, 5
	ref := fleet.New(churnSpec(t, index+1, func(tn int) (uint64, uint64, uint64, uint64) {
		return fleet.TenantSeeds(base, tn)
	})).Run()

	solo := fleet.New(churnSpec(t, 1, func(int) (uint64, uint64, uint64, uint64) {
		return fleet.TenantSeeds(base, index)
	})).Run()

	assertTenantEqual(t, index, solo[0], ref[index])
}

func assertTenantEqual(t *testing.T, tn int, got, want fleet.TenantResult) {
	t.Helper()
	if len(got.DefenseSamples) != len(want.DefenseSamples) {
		t.Fatalf("tenant %d: %d samples vs %d", tn, len(got.DefenseSamples), len(want.DefenseSamples))
	}
	for i := range got.DefenseSamples {
		if got.DefenseSamples[i] != want.DefenseSamples[i] {
			t.Fatalf("tenant %d sample %d: %v != %v", tn, i, got.DefenseSamples[i], want.DefenseSamples[i])
		}
	}
	for i := range got.TickPowerW {
		if got.TickPowerW[i] != want.TickPowerW[i] {
			t.Fatalf("tenant %d tick %d: %v != %v", tn, i, got.TickPowerW[i], want.TickPowerW[i])
		}
	}
	if got.EnergyJ != want.EnergyJ {
		t.Fatalf("tenant %d energy %v != %v", tn, got.EnergyJ, want.EnergyJ)
	}
	var gb, wb bytes.Buffer
	if got.Flight != nil || want.Flight != nil {
		if err := got.Flight.Flush(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want.Flight.Flush(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("tenant %d flight traces differ", tn)
		}
	}
	var gc, wc bytes.Buffer
	if err := fleet.WriteCSV(&gc, []fleet.TenantResult{got}, []int{tn}); err != nil {
		t.Fatal(err)
	}
	if err := fleet.WriteCSV(&wc, []fleet.TenantResult{want}, []int{tn}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gc.Bytes(), wc.Bytes()) {
		t.Fatalf("tenant %d CSV exports differ", tn)
	}
}
