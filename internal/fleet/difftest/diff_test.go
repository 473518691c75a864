package difftest

import (
	"bytes"
	"math"
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
	// The other machine configs.
	cases = append(cases, Case{
		Name: "sys2-gs", Config: sim.Sys2(), Kind: defense.MayaGS,
		Tenants: 4, Ticks: 300, Seed: 11, Scale: 0.02, Flight: 64, Guard: true,
	}, Case{
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
		{Name: "gs-1000-faulted", Config: cfg, Kind: defense.MayaGS, Tenants: 1000,
			Ticks: 60, Seed: 0x1001, Plan: kitchenSink(t), Scale: 0.02, Flight: 8, Guard: true},
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

// TestSkipTickTracesChangesNothingElse pins fleet.Spec.SkipTickTraces:
// with it set, TickPowerW and TickWallW are nil and every other result
// field — period trace, inputs, targets, energy, seconds, finish tick,
// first step, fault stats and flight JSONL — equals the recording run's
// bit for bit, over a full run and over an early Results call, which
// returns a prefix. The cases are a faulted Maya fleet whose warmup and
// run end mid-period, and a non-Maya fleet on another machine.
func TestSkipTickTracesChangesNothingElse(t *testing.T) {
	cases := []Case{
		{Name: "gs/kitchen-sink", Config: sim.Sys1(), Kind: defense.MayaGS, Tenants: 3,
			Ticks: 390, Warmup: 110, Seed: 0x5c1, Plan: kitchenSink(t), Scale: 0.02, Flight: 64, Guard: true},
		{Name: "random", Config: sim.Sys2(), Kind: defense.RandomInputs, Tenants: 3,
			Ticks: 400, Warmup: 40, Seed: 0x5c2, Scale: 0.02},
	}
	// run steps periods control periods (all of them when negative), then
	// takes the results, each flight recorder flushed into flights.
	run := func(c Case, skip bool, periods int) (res []fleet.TenantResult, flights [][]byte) {
		spec, err := c.spec()
		if err != nil {
			t.Fatal(err)
		}
		spec.SkipTickTraces = skip
		e := fleet.New(spec)
		e.Start()
		for p, more := 0, true; more && p != periods; p++ {
			more = e.StepPeriod()
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
	for _, c := range cases {
		for _, periods := range []int{-1, 7} {
			c, periods := c, periods
			name := c.Name + "/full"
			if periods >= 0 {
				name = c.Name + "/early"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				want, wantFlights := run(c, false, periods)
				got, gotFlights := run(c, true, periods)
				ticks := c.Ticks
				if periods >= 0 {
					ticks = periods * 20
				}
				for i := range want {
					w, g := want[i], got[i]
					if len(w.TickPowerW) != ticks || len(w.TickWallW) != ticks {
						t.Fatalf("tenant %d: recording run kept %d/%d ticks, want %d",
							i, len(w.TickPowerW), len(w.TickWallW), ticks)
					}
					if g.TickPowerW != nil || g.TickWallW != nil {
						t.Fatalf("tenant %d: skipping run kept %d/%d ticks", i, len(g.TickPowerW), len(g.TickWallW))
					}
					if math.Float64bits(g.Seconds) != math.Float64bits(w.Seconds) ||
						math.Float64bits(w.Seconds) != math.Float64bits(float64(ticks)*c.Config.TickSeconds) {
						t.Fatalf("tenant %d: seconds %v, recording run %v, over %d ticks", i, g.Seconds, w.Seconds, ticks)
					}
					w.TickPowerW, w.TickWallW = nil, nil
					if err := diffTenant(scalarTenant{res: w.RunResult, targets: w.Targets, stats: w.Stats}, g); err != nil {
						t.Fatalf("tenant %d: %v", i, err)
					}
					if !bytes.Equal(gotFlights[i], wantFlights[i]) {
						t.Fatalf("tenant %d: flight records differ:\n%s", i, firstDiffLine(wantFlights[i], gotFlights[i]))
					}
				}
			})
		}
	}
}
