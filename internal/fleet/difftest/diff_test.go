package difftest

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/sim"
)

func kitchenSink(t testing.TB) fault.Plan {
	t.Helper()
	p, ok := fault.PlanByName("kitchen-sink")
	if !ok {
		t.Fatal("kitchen-sink plan missing")
	}
	return p
}

// TestFleetMatchesScalar is the headline equivalence table: every defense
// kind, tenant counts 1/2/16, short app workloads, warmup, flight
// recorders, and guards — each case bit-compared tenant by tenant against
// the scalar reference.
func TestFleetMatchesScalar(t *testing.T) {
	cfg := sim.Sys1()
	cases := []Case{}
	for _, kind := range defense.Kinds {
		for _, tenants := range []int{1, 2, 16} {
			cases = append(cases, Case{
				Name:    kind.String(),
				Config:  cfg,
				Kind:    kind,
				Tenants: tenants,
				Ticks:   400,
				Seed:    0xfee1 + uint64(tenants),
				Scale:   0.02,
				Flight:  64,
				Guard:   true,
			})
		}
	}
	// Warmup alignment: recording starts mid-operation.
	cases = append(cases, Case{
		Name: "gs-warmup", Config: cfg, Kind: defense.MayaGS,
		Tenants: 3, Ticks: 300, Warmup: 100, Seed: 7, Scale: 0.02,
		Flight: 64, Guard: true,
	})
	// Partial periods: warmup and recording both end mid-period, so the
	// engine's machine phases are cut short at both ends of the warmup
	// and at the end of the run.
	cases = append(cases, Case{
		Name: "gs-partial-periods", Config: cfg, Kind: defense.MayaGS,
		Tenants: 3, Ticks: 390, Warmup: 110, Seed: 13, Scale: 0.02,
		Flight: 64, Guard: true,
	})
	// Idle fleet (no workload).
	cases = append(cases, Case{
		Name: "constant-idle", Config: cfg, Kind: defense.MayaConstant,
		Tenants: 4, Ticks: 300, Seed: 9, Flight: 64, Guard: true,
	})
	// A second machine config.
	cases = append(cases, Case{
		Name: "sys3-gs", Config: sim.Sys3(), Kind: defense.MayaGS,
		Tenants: 4, Ticks: 300, Seed: 11, Scale: 0.02, Flight: 64, Guard: true,
	})
	for _, c := range cases {
		c := c
		t.Run(c.Name+"/"+itoa(c.Tenants), func(t *testing.T) {
			t.Parallel()
			if err := Diff(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFleetMatchesScalarUnderFaults pins equivalence under every canned
// fault plan — sensor glitches, counter wraps, stuck actuators, deadline
// misses, and all of them at once — for the Maya kinds with guard and
// flight attached, plus a non-Maya control.
func TestFleetMatchesScalarUnderFaults(t *testing.T) {
	cfg := sim.Sys1()
	var cases []Case
	for _, plan := range fault.Plans() {
		for _, kind := range []defense.Kind{defense.MayaGS, defense.MayaConstant, defense.RandomInputs} {
			cases = append(cases, Case{
				Name:    kind.String() + "/" + plan.Name,
				Config:  cfg,
				Kind:    kind,
				Tenants: 3,
				Ticks:   400,
				Seed:    0xbad + uint64(len(cases)),
				Plan:    plan,
				Scale:   0.02,
				Flight:  64,
				Guard:   true,
			})
		}
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := Diff(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFleetMatchesScalarLarge is the 1000-tenant acceptance case: short,
// but every tenant bit-compared, with and without the kitchen-sink plan.
func TestFleetMatchesScalarLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-tenant differential run skipped in -short mode")
	}
	cfg := sim.Sys1()
	for _, c := range []Case{
		{Name: "gs-1000", Config: cfg, Kind: defense.MayaGS, Tenants: 1000,
			Ticks: 60, Seed: 0x1000, Scale: 0.02, Flight: 8, Guard: true},
		large1000Faulted(t),
	} {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			if err := Diff(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// large1000Faulted is the 1000-tenant kitchen-sink case.
func large1000Faulted(t testing.TB) Case {
	return Case{Name: "gs-1000-faulted", Config: sim.Sys1(), Kind: defense.MayaGS, Tenants: 1000,
		Ticks: 60, Seed: 0x1001, Plan: kitchenSink(t), Scale: 0.02, Flight: 8, Guard: true}
}

// TestFleetGOMAXPROCSInvariant runs the 1000-tenant kitchen-sink case at
// GOMAXPROCS 1, 2 and 8, evicting one tenant after the first period, and
// requires identical results from all three: the engine's split of a
// period's machine ticks over tenant ranges, which follows GOMAXPROCS,
// must never show in a trace, target, flight record, fault count or
// finish tick. It sets GOMAXPROCS, so it must not run in parallel.
func TestFleetGOMAXPROCSInvariant(t *testing.T) {
	c := large1000Faulted(t)
	spec, err := c.spec()
	if err != nil {
		t.Fatal(err)
	}
	const evicted = 421
	// run returns the results with each flight recorder flushed into
	// flights, as Flush drains the recorder.
	run := func(procs int) (res []fleet.TenantResult, flights [][]byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e := fleet.New(spec)
		e.Start()
		e.StepPeriod()
		e.Evict(evicted)
		for e.StepPeriod() {
		}
		res = e.Results()
		flights = make([][]byte, len(res))
		for i := range res {
			if f := res[i].Flight; f != nil {
				var buf bytes.Buffer
				if err := f.Flush(&buf); err != nil {
					t.Fatal(err)
				}
				flights[i], res[i].Flight = buf.Bytes(), nil
			}
		}
		return res, flights
	}
	ref, refFlights := run(1)
	if len(ref[evicted].TickPowerW) != 0 || len(ref[0].TickPowerW) != c.Ticks {
		t.Fatalf("eviction did not take: %d ticks evicted, %d ticks kept",
			len(ref[evicted].TickPowerW), len(ref[0].TickPowerW))
	}
	for _, procs := range []int{2, 8} {
		got, gotFlights := run(procs)
		for i, r := range ref {
			want := scalarTenant{res: r.RunResult, targets: r.Targets, stats: r.Stats}
			if err := diffTenant(want, got[i]); err != nil {
				t.Fatalf("GOMAXPROCS %d vs 1: tenant %d: %v", procs, i, err)
			}
			if !bytes.Equal(gotFlights[i], refFlights[i]) {
				t.Fatalf("GOMAXPROCS %d vs 1: tenant %d: flight records differ:\n%s",
					procs, i, firstDiffLine(refFlights[i], gotFlights[i]))
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
