package defense

import (
	"context"
	"math"
	"sync"
	"testing"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

var (
	artMu   sync.Mutex
	artSys1 *core.Design
)

func sys1Art(t *testing.T) *core.Design {
	t.Helper()
	artMu.Lock()
	defer artMu.Unlock()
	if artSys1 == nil {
		d, err := core.DesignFor(sim.Sys1(), core.DefaultDesignOptions())
		if err != nil {
			t.Fatal(err)
		}
		artSys1 = d
	}
	return artSys1
}

func TestKindNames(t *testing.T) {
	want := []string{"Baseline", "Noisy Baseline", "Random Inputs", "Maya Constant", "Maya GS"}
	for i, k := range Kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d name %q want %q", i, k.String(), want[i])
		}
	}
}

func TestMayaDesignsRequireArtifact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without artifact")
		}
	}()
	NewDesign(MayaGS, sim.Sys1(), nil, 20)
}

func TestNoisyBaselineFixedPerRun(t *testing.T) {
	cfg := sim.Sys1()
	d := NewDesign(NoisyBaseline, cfg, nil, 20)
	p := d.Policy(7)
	first := p.Decide(0, 10)
	for i := 1; i < 100; i++ {
		if got := p.Decide(i, 15); got != first {
			t.Fatal("noisy baseline changed inputs mid-run")
		}
	}
	// Different run seeds give different settings.
	q := d.Policy(8)
	if q.Decide(0, 10) == first {
		t.Fatal("noisy baseline identical across runs")
	}
}

func TestRandomInputsChangesAtRuntime(t *testing.T) {
	cfg := sim.Sys1()
	d := NewDesign(RandomInputs, cfg, nil, 20)
	p := d.Policy(3)
	seen := map[sim.Inputs]bool{}
	for i := 0; i < 500; i++ {
		seen[p.Decide(i, 12)] = true
	}
	if len(seen) < 3 {
		t.Fatalf("random inputs barely changed: %d distinct settings", len(seen))
	}
}

func TestCollectShapesAndDeterminism(t *testing.T) {
	cfg := sim.Sys1()
	spec := CollectSpec{
		Cfg:          cfg,
		Design:       NewDesign(Baseline, cfg, nil, 20),
		Classes:      AppClasses(0.02)[:3],
		RunsPerClass: 2,
		MaxTicks:     3000,
		Seed:         5,
	}
	ds, stats := Collect(context.Background(), spec)
	if len(ds.Traces) != 6 {
		t.Fatalf("traces=%d want 6", len(ds.Traces))
	}
	if len(stats) != 6 {
		t.Fatalf("stats=%d", len(stats))
	}
	// 3000 ticks at 20-tick sampling → 150 samples per trace.
	for _, tr := range ds.Traces {
		if len(tr.Samples) != 150 {
			t.Fatalf("trace has %d samples want 150", len(tr.Samples))
		}
		if tr.PeriodMS != 20 {
			t.Fatalf("period %g", tr.PeriodMS)
		}
	}
	// Determinism across invocations (parallel workers must not matter).
	ds2, _ := Collect(context.Background(), spec)
	for i := range ds.Traces {
		for j := range ds.Traces[i].Samples {
			if ds.Traces[i].Samples[j] != ds2.Traces[i].Samples[j] {
				t.Fatal("collection not deterministic")
			}
		}
	}
}

func TestCollectOutletSensor(t *testing.T) {
	cfg := sim.Sys3()
	spec := CollectSpec{
		Cfg:               cfg,
		Design:            NewDesign(Baseline, cfg, nil, 20),
		Classes:           PageClasses(0.3)[:2],
		RunsPerClass:      1,
		MaxTicks:          5000,
		AttackPeriodTicks: 50, // 50 ms outlet sampling
		Outlet:            true,
		Seed:              9,
	}
	ds, _ := Collect(context.Background(), spec)
	for _, tr := range ds.Traces {
		if tr.PeriodMS != 50 {
			t.Fatalf("outlet period %g want 50", tr.PeriodMS)
		}
		// Wall power includes rest-of-system: must exceed core-only levels.
		if signal.Mean(tr.Samples) < cfg.RestOfSystemW {
			t.Fatalf("outlet trace mean %g below rest-of-system %g",
				signal.Mean(tr.Samples), cfg.RestOfSystemW)
		}
	}
}

func TestDefensesSeparateInPower(t *testing.T) {
	// Sanity for Fig 14's direction: defenses lower average power and raise
	// execution time relative to Baseline.
	cfg := sim.Sys1()
	art := sys1Art(t)
	// Representative scale: the parallel phase must dominate, as in the
	// paper's native-input runs, for the energy-parity property to apply.
	classes := AppClasses(0.3)[:1]
	run := func(k Kind) RunStats {
		spec := CollectSpec{
			Cfg:          cfg,
			Design:       NewDesign(k, cfg, art, 20),
			Classes:      classes,
			RunsPerClass: 1,
			MaxTicks:     200000,
			StopOnFinish: true,
			Seed:         11,
		}
		_, stats := Collect(context.Background(), spec)
		var agg RunStats
		for _, s := range stats {
			if !s.Finished {
				t.Fatalf("%v run did not finish", k)
			}
			agg.Seconds += s.Seconds
			agg.EnergyJ += s.EnergyJ
		}
		agg.Seconds /= float64(len(stats))
		agg.EnergyJ /= float64(len(stats))
		return agg
	}
	base := run(Baseline)
	gs := run(MayaGS)
	if gs.Seconds <= base.Seconds {
		t.Fatalf("Maya GS should slow execution: %g vs %g s", gs.Seconds, base.Seconds)
	}
	// §VII-E: Maya GS total energy ≈ Baseline energy (lower power × longer
	// time); require the ratio within a generous band.
	ratio := gs.EnergyJ / base.EnergyJ
	if ratio < 0.5 || ratio > 2.2 {
		t.Fatalf("GS/Baseline energy ratio %g outside plausible band", ratio)
	}
}

func TestMayaGSTracesFollowMaskNotApp(t *testing.T) {
	// Attack-surface view: two GS-protected runs of the same app are
	// mutually uncorrelated (each has its own mask), which is the property
	// that defeats trace averaging (§VII-B).
	cfg := sim.Sys1()
	art := sys1Art(t)
	spec := CollectSpec{
		Cfg:          cfg,
		Design:       NewDesign(MayaGS, cfg, art, 20),
		Classes:      AppClasses(0.3)[:1],
		RunsPerClass: 2,
		MaxTicks:     30000,
		Seed:         13,
	}
	ds, _ := Collect(context.Background(), spec)
	a, b := ds.Traces[0].Samples, ds.Traces[1].Samples
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if c := math.Abs(signal.Pearson(a[:n], b[:n])); c > 0.3 {
		t.Fatalf("two GS runs correlate: %g", c)
	}
}

func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	art := sys1Art(t)
	collect := func(workers int) (*trace.Dataset, []RunStats) {
		return Collect(context.Background(), CollectSpec{
			Cfg:          sim.Sys1(),
			Design:       NewDesign(MayaGS, sim.Sys1(), art, 20),
			Classes:      AppClasses(0.12)[:3],
			RunsPerClass: 3,
			MaxTicks:     3000,
			WarmupTicks:  500,
			Seed:         77,
			Workers:      workers,
		})
	}
	ds1, st1 := collect(1)
	for _, workers := range []int{4, 9} {
		dsN, stN := collect(workers)
		if len(dsN.Traces) != len(ds1.Traces) {
			t.Fatalf("workers=%d: %d traces vs %d serial", workers, len(dsN.Traces), len(ds1.Traces))
		}
		for i := range ds1.Traces {
			a, b := ds1.Traces[i], dsN.Traces[i]
			if a.Label != b.Label || len(a.Samples) != len(b.Samples) {
				t.Fatalf("workers=%d: trace %d shape mismatch", workers, i)
			}
			for j := range a.Samples {
				if a.Samples[j] != b.Samples[j] {
					t.Fatalf("workers=%d: trace %d sample %d differs: %v vs %v",
						workers, i, j, a.Samples[j], b.Samples[j])
				}
			}
		}
		for i := range st1 {
			if st1[i] != stN[i] {
				t.Fatalf("workers=%d: run stats %d differ: %+v vs %+v", workers, i, st1[i], stN[i])
			}
		}
	}
}

// countdown is a one-thread workload that completes on the n-th tick the
// machine runs it, whatever work that tick does.
type countdown struct{ left int }

func (c *countdown) Name() string            { return "countdown" }
func (c *countdown) Demand() workload.Demand { return workload.Demand{Threads: 1, Activity: 1} }
func (c *countdown) Advance(float64) bool    { c.left--; return c.left == 0 }
func (c *countdown) Done() bool              { return c.left <= 0 }
func (c *countdown) TotalWork() float64      { return 0 }
func (c *countdown) Reset(uint64)            {}

// referenceRun is run (label, run) of spec through sim.Run, with runOne's
// seeds: the attacker's samples and the run's stats, AvgPowerW being the
// mean of Run's per-tick power trace.
func referenceRun(spec CollectSpec, label, run int) ([]float64, RunStats) {
	base := spec.Seed + uint64(label)*1_000_003 + uint64(run)*7_919
	m := sim.NewMachine(spec.Cfg, base+1)
	w := spec.Classes[label].New()
	w.Reset(base + 2)
	var sensor sim.PowerSensor = sim.NewRAPLSensor(m)
	if spec.Outlet {
		sensor = sim.NewOutletSensor(spec.Cfg, base+4)
	}
	att := &sim.Sampler{Sensor: sensor, PeriodTicks: spec.AttackPeriodTicks}
	res := sim.Run(m, w, spec.Design.Policy(base+3), sim.RunSpec{
		MaxTicks:     spec.MaxTicks,
		StopOnFinish: spec.StopOnFinish,
		Samplers:     []*sim.Sampler{att},
		WarmupTicks:  spec.WarmupTicks,
	})
	seconds := res.Seconds
	if res.FinishedTick >= 0 {
		seconds = float64(res.FinishedTick) * spec.Cfg.TickSeconds
	}
	return att.Samples, RunStats{
		Label:     label,
		Seconds:   seconds,
		EnergyJ:   res.EnergyJ,
		AvgPowerW: signal.Mean(res.TickPowerW),
		Finished:  res.FinishedTick >= 0,
	}
}

// TestCollectMatchesRun pins Collect's own control loop, which keeps a
// running sum where sim.Run keeps per-tick traces, to sim.Run: every
// run's attacker samples and RunStats equal a sim.Run reference with the
// same seeds bit for bit, AvgPowerW included. It covers the RAPL and
// outlet attackers, StopOnFinish on and off, a warmup that ends
// mid-period, and a workload that completes mid-period, on tick 1013, so
// that under StopOnFinish the completing tick is the last one summed.
func TestCollectMatchesRun(t *testing.T) {
	const period, finishAt = 20, 1013
	art := sys1Art(t)
	for _, tc := range []struct {
		name         string
		outlet, stop bool
	}{
		{"rapl/run-on", false, false},
		{"rapl/stop", false, true},
		{"outlet/run-on", true, false},
		{"outlet/stop", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, attackTicks := sim.Sys1(), 20
			if tc.outlet {
				attackTicks = 50
			}
			if finishAt%period == 0 {
				t.Fatal("the countdown class must finish mid-period")
			}
			spec := CollectSpec{
				Cfg:    cfg,
				Design: NewDesign(MayaGS, cfg, art, period),
				Classes: []Class{
					AppClasses(0.02)[0],
					{Name: "countdown", New: func() workload.Workload { return &countdown{left: finishAt} }},
				},
				RunsPerClass:      2,
				MaxTicks:          3000,
				StopOnFinish:      tc.stop,
				AttackPeriodTicks: attackTicks,
				Outlet:            tc.outlet,
				Seed:              41,
				WarmupTicks:       130,
				Workers:           2,
			}
			ds, stats := Collect(context.Background(), spec)
			if len(stats) != len(spec.Classes)*spec.RunsPerClass || len(ds.Traces) != len(stats) {
				t.Fatalf("%d traces and %d stats", len(ds.Traces), len(stats))
			}
			for i, got := range stats {
				label, run := i/spec.RunsPerClass, i%spec.RunsPerClass
				samples, want := referenceRun(spec, label, run)
				if got.Label != want.Label || got.Finished != want.Finished ||
					math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) ||
					math.Float64bits(got.EnergyJ) != math.Float64bits(want.EnergyJ) ||
					math.Float64bits(got.AvgPowerW) != math.Float64bits(want.AvgPowerW) {
					t.Errorf("run %d/%d: stats %+v, sim.Run gives %+v", label, run, got, want)
				}
				tr := ds.Traces[i]
				if tr.Label != label || len(tr.Samples) != len(samples) {
					t.Fatalf("run %d/%d: trace of label %d with %d samples, want %d and %d",
						label, run, tr.Label, len(tr.Samples), label, len(samples))
				}
				for j := range samples {
					if math.Float64bits(tr.Samples[j]) != math.Float64bits(samples[j]) {
						t.Fatalf("run %d/%d: sample %d = %v, want %v", label, run, j, tr.Samples[j], samples[j])
					}
				}
				if label == 1 {
					if want := float64(finishAt) * cfg.TickSeconds; !got.Finished || got.Seconds != want {
						t.Errorf("countdown run %d: finished %v after %v s, want after %v s", run, got.Finished, got.Seconds, want)
					}
				}
			}
		})
	}
}
