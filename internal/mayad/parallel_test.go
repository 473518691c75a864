package mayad_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/fleet/difftest"
	"github.com/maya-defense/maya/internal/mayad"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// solo is one tenant run alone, as a fleet of one, with the per-tick
// traces recorded: what the daemon must reproduce.
type solo struct {
	res    fleet.TenantResult
	flight []byte // flight JSONL; nil without a recorder
}

// soloRun runs sp as a fleet of one built the way the daemon builds a
// bank for it. sp must be fully specified (no zero-value defaults).
func soloRun(t *testing.T, sp mayad.TenantSpec) solo {
	t.Helper()
	cfg, ok := sim.PresetByName(sp.Machine)
	if !ok {
		t.Fatalf("unknown machine %q", sp.Machine)
	}
	kind, ok := defense.KindByName(sp.Defense)
	if !ok {
		t.Fatalf("unknown defense %q", sp.Defense)
	}
	spec := fleet.Spec{
		Config:      cfg,
		Kind:        kind,
		PeriodTicks: mayad.PeriodTicks,
		Tenants:     1,
		SeedAt: func(int) (uint64, uint64, uint64, uint64) {
			return fleet.TenantSeeds(sp.Seed, sp.Index)
		},
		NewWorkload: func() workload.Workload {
			w, err := workload.New(sp.Workload, sp.Scale)
			if err != nil {
				panic(err)
			}
			return w
		},
		WarmupTicks: sp.WarmupTicks,
		MaxTicks:    sp.MaxTicks,
	}
	if kind.IsMaya() {
		art, err := difftest.DesignFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spec.Art = art
	}
	if sp.Faults != "" {
		if spec.Plan, ok = fault.PlanByName(sp.Faults); !ok {
			t.Fatalf("unknown fault plan %q", sp.Faults)
		}
		if kind.IsMaya() {
			g := core.DefaultGuard(cfg)
			spec.Guard = &g
		}
	}
	if sp.Flight {
		spec.FlightCapacity = sp.WarmupTicks/mayad.PeriodTicks + sp.MaxTicks/mayad.PeriodTicks + 8
	}
	out := solo{res: fleet.New(spec).Run()[0]}
	if f := out.res.Flight; f != nil {
		var buf bytes.Buffer
		if err := f.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		out.flight = buf.Bytes()
	}
	return out
}

// tickSeconds is the tick length of sp's machine.
func tickSeconds(sp mayad.TenantSpec) float64 {
	cfg, _ := sim.PresetByName(sp.Machine)
	return cfg.TickSeconds
}

// maytOf encodes a period trace as the daemon's trace?format=mayt does.
func maytOf(t *testing.T, sp mayad.TenantSpec, samples []float64) []byte {
	t.Helper()
	d := &trace.Dataset{ClassNames: []string{sp.Workload}}
	d.Add(0, float64(mayad.PeriodTicks)*tickSeconds(sp)*1000, samples)
	var buf bytes.Buffer
	if err := d.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mixedSpecs returns one tenant per machine × defense pair, cycling
// through the catalog programs, every third under the kitchen-sink fault
// plan and the Maya tenants with flight recorders. max_ticks is firstTicks
// + 13·i, so the lengths are pairwise distinct (each tenant gets a bank of
// its own) and most end mid-period.
func mixedSpecs(seed uint64, firstTicks int) []mayad.TenantSpec {
	var specs []mayad.TenantSpec
	for _, machine := range sim.PresetNames {
		for _, def := range defense.KindNames {
			i := len(specs)
			sp := mayad.TenantSpec{
				Machine: machine, Defense: def,
				Workload: workload.AppNames[i%len(workload.AppNames)], Scale: testScale,
				Seed: seed, Index: i,
				MaxTicks: firstTicks + 13*i, WarmupTicks: testWarmup,
			}
			if i%3 == 0 {
				sp.Faults = "kitchen-sink"
			}
			kind, _ := defense.KindByName(def)
			sp.Flight = kind.IsMaya()
			specs = append(specs, sp)
		}
	}
	return specs
}

// downloads GETs a finished tenant's MAYT trace and flight JSONL (nil
// when it recorded none).
func downloads(t *testing.T, base string, id int, flight bool) (mayt, fl []byte) {
	t.Helper()
	code, mayt := get(t, fmt.Sprintf("%s/tenants/%d/trace?format=mayt", base, id))
	if code != http.StatusOK {
		t.Fatalf("tenant %d trace: status %d", id, code)
	}
	if !flight {
		return mayt, nil
	}
	code, fl = get(t, fmt.Sprintf("%s/tenants/%d/flight", base, id))
	if code != http.StatusOK {
		t.Fatalf("tenant %d flight: status %d", id, code)
	}
	return mayt, fl
}

// sharedBankTenants is how many identical specs share one bank: twice the
// fleet's 64-tenant minimum per machine-phase worker, so that bank fans
// its machine ticks out over two workers of its own.
const sharedBankTenants = 128

// TestParallelBanksMatchSoloRuns runs many banks through one shard's
// parallel pass — every machine × defense pair in a bank of its own,
// faults and flight recorders among them, beside one bank of
// sharedBankTenants identical tenants admitted before Start — and
// requires every tenant to match a solo fleet run of its spec: the MAYT
// trace and flight JSONL byte for byte, and the energy, seconds, finish
// tick and sample count of its status. It sets GOMAXPROCS to 4 so the
// pass fans out on any host; it must not run in parallel.
func TestParallelBanksMatchSoloRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const base = 0x9a11e1

	var specs []mayad.TenantSpec
	for i := 0; i < sharedBankTenants; i++ {
		specs = append(specs, mayad.TenantSpec{
			Machine: "sys1", Defense: "gs", Workload: "blackscholes", Scale: testScale,
			Seed: base, Index: 1000 + i,
			MaxTicks: 480, WarmupTicks: testWarmup, Flight: true,
		})
	}
	// 200 + 13·i never reaches 480 for the 15 pairs, so no small tenant
	// joins the shared bank.
	specs = append(specs, mixedSpecs(base, 200)...)

	cfg := testConfig(1)
	cfg.MaxTenants = len(specs)
	cfg.QueueDepth = len(specs)
	srv := mayad.New(cfg, nil)
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]int, len(specs))
	for i, sp := range specs {
		if i == sharedBankTenants {
			srv.Start()
		}
		resp, st := admit(t, ts.URL, sp)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = st.ID
	}

	for i, sp := range specs {
		st := waitState(t, ts.URL, ids[i], mayad.StateDone)
		want := soloRun(t, sp)
		if st.EnergyJ != want.res.EnergyJ || st.Seconds != want.res.Seconds ||
			st.FinishedTick != want.res.FinishedTick || st.Samples != len(want.res.DefenseSamples) {
			t.Fatalf("tenant %d %+v: status energy %v seconds %v finished %d samples %d, solo run %v %v %d %d",
				i, sp, st.EnergyJ, st.Seconds, st.FinishedTick, st.Samples,
				want.res.EnergyJ, want.res.Seconds, want.res.FinishedTick, len(want.res.DefenseSamples))
		}
		mayt, fl := downloads(t, ts.URL, ids[i], sp.Flight)
		if !bytes.Equal(mayt, maytOf(t, sp, want.res.DefenseSamples)) {
			t.Fatalf("tenant %d %+v: MAYT trace differs from its solo run", i, sp)
		}
		if !bytes.Equal(fl, want.flight) {
			t.Fatalf("tenant %d %+v: flight JSONL differs from its solo run", i, sp)
		}
	}
}

// TestParallelDrainKeepsPrefixes drains a paced daemon while several
// banks are mid-run: the parallel collection must leave every tenant a
// bit-identical prefix of its solo run — trace and flight JSONL — with a
// status whose tick, seconds and samples agree. It sets GOMAXPROCS to 4
// so the drain fans out on any host; it must not run in parallel.
func TestParallelDrainKeepsPrefixes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const base = 0xd7a2
	specs := mixedSpecs(base, 4000)[:8]

	cfg := testConfig(1)
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ids := make([]int, len(specs))
	for i, sp := range specs {
		resp, st := admit(t, ts.URL, sp)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = st.ID
	}
	// Drain once every tenant has recorded a period.
	for _, id := range ids {
		for tries := 0; status(t, ts.URL, id).Tick == 0; tries++ {
			if tries == 20000 {
				t.Fatalf("tenant %d never recorded a period", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	srv.Drain()

	for i, sp := range specs {
		st := status(t, ts.URL, ids[i])
		if st.State != mayad.StateDrained {
			t.Fatalf("tenant %d: state %q after a mid-run drain", i, st.State)
		}
		want := soloRun(t, sp)
		if st.Samples == 0 || st.Samples >= len(want.res.DefenseSamples) {
			t.Fatalf("tenant %d: drained with %d of %d samples, not mid-run", i, st.Samples, len(want.res.DefenseSamples))
		}
		if st.Tick != st.Samples*mayad.PeriodTicks || st.Seconds != float64(st.Tick)*tickSeconds(sp) {
			t.Fatalf("tenant %d: tick %d, seconds %v for %d samples", i, st.Tick, st.Seconds, st.Samples)
		}
		mayt, fl := downloads(t, ts.URL, ids[i], sp.Flight)
		if !bytes.Equal(mayt, maytOf(t, sp, want.res.DefenseSamples[:st.Samples])) {
			t.Fatalf("tenant %d %+v: drained trace is not a prefix of its solo run", i, sp)
		}
		if !bytes.HasPrefix(want.flight, fl) {
			t.Fatalf("tenant %d %+v: drained flight JSONL is not a prefix of its solo run", i, sp)
		}
	}
}

// TestStatusTickTracksProgress polls a paced tenant: its status tick must
// rise above 0 while it runs, never decrease, stay within max_ticks, and
// equal samples × 20 once it is done.
func TestStatusTickTracksProgress(t *testing.T) {
	cfg := testConfig(1)
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	srv.Start()
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sp := testSpec(0x71c, 0)
	sp.MaxTicks = 2000
	resp, st := admit(t, ts.URL, sp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit: status %d", resp.StatusCode)
	}
	id, last, runningTicks := st.ID, 0, 0
	for tries := 0; ; tries++ {
		if tries == 20000 {
			t.Fatalf("tenant stuck in %q at tick %d", st.State, st.Tick)
		}
		st = status(t, ts.URL, id)
		if st.Tick < last || st.Tick > sp.MaxTicks {
			t.Fatalf("tick %d after %d (max_ticks %d, state %q)", st.Tick, last, sp.MaxTicks, st.State)
		}
		last = st.Tick
		if st.State == mayad.StateRunning && st.Tick > 0 {
			runningTicks++
		}
		if st.State == mayad.StateDone {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if runningTicks == 0 {
		t.Fatal("no status poll saw a running tenant's progress")
	}
	if st.Tick != st.Samples*mayad.PeriodTicks || st.Tick != sp.MaxTicks {
		t.Fatalf("done at tick %d with %d samples (max_ticks %d)", st.Tick, st.Samples, sp.MaxTicks)
	}
}

// TestSpillDrainDuringEviction drains the spill buffers continuously
// while pass workers push into them and tenants leave a shared bank
// mid-run. A drain reads the bank slots that an eviction clears, to
// translate slots to tenant ids; under -race every such read must be
// ordered with the eviction. It sets GOMAXPROCS to 4 so the pass fans out
// on any host; it must not run in parallel.
func TestSpillDrainDuringEviction(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const shared = 4
	cfg := testConfig(1)
	cfg.Pace = time.Millisecond
	srv := mayad.New(cfg, nil)
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The shared tenants are admitted before Start, so they fill one
	// bank; two more tenants of other lengths get banks of their own.
	for i := 0; i < shared+2; i++ {
		if i == shared {
			srv.Start()
		}
		sp := testSpec(0x5b12, i)
		sp.MaxTicks = 4000 + 20*max(i-shared+1, 0)
		if resp, _ := admit(t, ts.URL, sp); resp.StatusCode != http.StatusCreated {
			t.Fatalf("admit %d failed", i)
		}
	}

	stop := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
				srv.DrainSpill()
			}
		}
	}()
	for id := 0; id < shared-1; id++ {
		waitState(t, ts.URL, id, mayad.StateRunning)
		if ok, err := srv.Evict(id); !ok || err != nil {
			t.Fatalf("evict %d: %v %v", id, ok, err)
		}
		waitState(t, ts.URL, id, mayad.StateEvicted)
	}
	close(stop)
	<-drained
}
