package defense

import (
	"context"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// Class is one label in an attack experiment: a name and a workload
// factory producing a fresh instance per run.
type Class struct {
	Name string
	New  func() workload.Workload
}

// AppClasses builds the 11-application class set (attack 1), scaled.
func AppClasses(scale float64) []Class {
	out := make([]Class, len(workload.AppNames))
	for i, n := range workload.AppNames {
		name := n
		out[i] = Class{Name: name, New: func() workload.Workload {
			return workload.NewApp(name).Scale(scale)
		}}
	}
	return out
}

// VideoClasses builds the 4-video class set (attack 2), scaled.
func VideoClasses(scale float64) []Class {
	out := make([]Class, len(workload.VideoNames))
	for i, n := range workload.VideoNames {
		name := n
		out[i] = Class{Name: name, New: func() workload.Workload {
			return workload.NewVideo(name).Scale(scale)
		}}
	}
	return out
}

// PageClasses builds the 7-webpage class set (attack 3), scaled.
func PageClasses(scale float64) []Class {
	out := make([]Class, len(workload.PageNames))
	for i, n := range workload.PageNames {
		name := n
		out[i] = Class{Name: name, New: func() workload.Workload {
			return workload.NewPage(name).Scale(scale)
		}}
	}
	return out
}

// InstrClasses builds the 3-instruction class set (PLATYPUS, Fig 15).
func InstrClasses(work float64) []Class {
	out := make([]Class, len(workload.InstrNames))
	for i, n := range workload.InstrNames {
		name := n
		out[i] = Class{Name: name, New: func() workload.Workload {
			return workload.NewInstrLoop(name, work)
		}}
	}
	return out
}

// RunStats summarizes one run for the overhead analysis (Fig 14).
type RunStats struct {
	Label     int
	Seconds   float64 // execution time until completion (or the cap)
	EnergyJ   float64
	AvgPowerW float64
	Finished  bool
}

// CollectSpec configures attacker-visible trace collection under a defense.
type CollectSpec struct {
	Cfg sim.Config
	// Design builds each run's policy from the run's secret seed: a
	// *Design, or any other factory with the same Policy method.
	Design interface {
		Policy(runSeed uint64) sim.Policy
	}
	// Classes are the labels the attacker wants to distinguish.
	Classes []Class
	// RunsPerClass is the number of recorded executions per label (the
	// paper records 1,000 traces per application; tests use fewer). Collect
	// records one run per label when it is 0 or negative.
	RunsPerClass int
	// MaxTicks bounds each run.
	MaxTicks int
	// StopOnFinish ends runs at workload completion (used for overhead
	// accounting); attack traces usually record a fixed window.
	StopOnFinish bool
	// AttackPeriodTicks is the attacker's sampling interval in ticks
	// (20 = 20 ms RAPL; 50 = 50 ms outlet).
	AttackPeriodTicks int
	// Outlet selects the AC-outlet sensor instead of RAPL counters.
	Outlet bool
	// Seed derives all per-run secrets.
	Seed uint64
	// WarmupTicks runs the defense on the idle machine before the workload
	// starts and before recording begins. Maya is deployed as an always-on
	// privileged service, so an attacker never observes the controller's
	// cold start — only the app starting under an already-settled defense.
	WarmupTicks int
	// Workers bounds the collection's parallelism (<= 0: GOMAXPROCS).
	// Results are identical for every worker count: each run's seeds are a
	// pure function of (Seed, label, run).
	Workers int
	// Metrics, when non-nil, receives a per-run summary of every recorded
	// execution. The summaries are recorded in submission order after the
	// parallel fan-out completes, so their content is deterministic for a
	// fixed spec (everything observed is simulated-domain data).
	Metrics *CollectMetrics
	// PoolMetrics, when non-nil, instruments the collection's worker pool.
	PoolMetrics *runner.Metrics
}

// CollectMetrics aggregates per-run summaries of a collection sweep.
type CollectMetrics struct {
	// Runs counts recorded executions; Finished those that completed their
	// workload within the recording window.
	Runs     *telemetry.Counter
	Finished *telemetry.Counter
	// RunSeconds, EnergyJ, and AvgPowerW observe each run's simulated
	// duration, energy, and mean true power.
	RunSeconds *telemetry.Histogram
	EnergyJ    *telemetry.Histogram
	AvgPowerW  *telemetry.Histogram
}

// NewCollectMetrics registers the collection instruments in reg.
func NewCollectMetrics(reg *telemetry.Registry) *CollectMetrics {
	return &CollectMetrics{
		Runs:       reg.Counter("collect_runs_total", "recorded executions"),
		Finished:   reg.Counter("collect_runs_finished_total", "runs whose workload completed in the window"),
		RunSeconds: reg.Histogram("collect_run_seconds", "simulated seconds per run", telemetry.ExpBuckets(0.25, 2, 12)),
		EnergyJ:    reg.Histogram("collect_run_energy_j", "true core energy per run", telemetry.ExpBuckets(1, 2, 14)),
		AvgPowerW:  reg.Histogram("collect_run_avg_power_w", "mean true core power per run", telemetry.LinearBuckets(5, 5, 40)),
	}
}

// Collect runs the experiment and returns the attacker's dataset along with
// per-run stats. Runs execute in parallel across CPUs; results are
// deterministic for a given spec because every run derives its own seeds.
// ctx bounds the sweep (cancellation abandons unstarted runs) and carries
// the parent span when the process-wide tracer is active.
func Collect(ctx context.Context, spec CollectSpec) (*trace.Dataset, []RunStats) {
	if spec.AttackPeriodTicks <= 0 {
		spec.AttackPeriodTicks = 20
	}
	if spec.RunsPerClass <= 0 {
		spec.RunsPerClass = 1
	}
	if spec.MaxTicks <= 0 {
		spec.MaxTicks = 60000
	}

	names := make([]string, len(spec.Classes))
	for i, c := range spec.Classes {
		names[i] = c.Name
	}
	ds := &trace.Dataset{ClassNames: names}

	// Fan the (label, run) grid across the pool. Each run derives its own
	// seeds from (Seed, label, run) below, so the runner's stream is unused
	// and results are byte-identical at any worker count.
	n := len(spec.Classes) * spec.RunsPerClass
	results, _ := runner.MapN(ctx, runner.Options{Workers: spec.Workers, Metrics: spec.PoolMetrics}, n,
		func(jctx context.Context, i int, _ *rng.Stream) (oneResult, error) {
			return runOne(jctx, spec, i/spec.RunsPerClass, i%spec.RunsPerClass), nil
		})

	periodMS := float64(spec.AttackPeriodTicks) * spec.Cfg.TickSeconds * 1000
	stats := make([]RunStats, 0, len(results))
	for i, r := range results {
		ds.Add(i/spec.RunsPerClass, periodMS, r.samples)
		stats = append(stats, r.stats)
		if m := spec.Metrics; m != nil {
			m.Runs.Inc()
			if r.stats.Finished {
				m.Finished.Inc()
			}
			m.RunSeconds.Observe(r.stats.Seconds)
			m.EnergyJ.Observe(r.stats.EnergyJ)
			m.AvgPowerW.Observe(r.stats.AvgPowerW)
		}
	}
	return ds, stats
}

type oneResult struct {
	samples []float64
	stats   RunStats
}

// runOne executes a single labeled run under the defense.
func runOne(ctx context.Context, spec CollectSpec, label, run int) oneResult {
	// Per-run seeds: distinct streams for machine noise, workload jitter,
	// and the defense's secret draws.
	base := spec.Seed + uint64(label)*1_000_003 + uint64(run)*7_919
	m := sim.NewMachine(spec.Cfg, base+1)
	w := spec.Classes[label].New()
	w.Reset(base + 2)
	pol := spec.Design.Policy(base + 3)
	// When the process-wide tracer is on, nest this run's per-tick phase
	// spans under the runner job span riding the context. Tracing observes
	// only; the engine's decisions and the recorded samples are unchanged.
	if tr := telemetry.ActiveTrace(); tr.Enabled() {
		if eng, ok := pol.(*core.Engine); ok {
			eng.SetTrace(tr, telemetry.SpanFromContext(ctx))
		}
	}

	var sensor sim.PowerSensor
	if spec.Outlet {
		sensor = sim.NewOutletSensor(spec.Cfg, base+4)
	} else {
		sensor = sim.NewRAPLSensor(m)
	}
	att := &sim.Sampler{Sensor: sensor, PeriodTicks: spec.AttackPeriodTicks}
	l := sim.NewLoop(m, w, pol, sim.RunSpec{
		MaxTicks:     spec.MaxTicks,
		StopOnFinish: spec.StopOnFinish,
		Samplers:     []*sim.Sampler{att},
		WarmupTicks:  spec.WarmupTicks,
	})
	// sim.Run's loop, keeping only the sum of the per-tick power: added in
	// tick order and divided once, it is signal.Mean of the trace Run
	// would have built, bit for bit. Collect's MaxTicks is positive, so
	// at least one tick is summed.
	l.Start()
	sumW, ticks := 0.0, 0
	for !l.Done() {
		powerW, _, boundary := l.Tick()
		sumW += powerW
		ticks++
		if boundary {
			l.Sense()
			l.Decide()
			l.Actuate()
		}
	}
	res := l.Result()
	seconds := res.Seconds
	if res.FinishedTick >= 0 {
		seconds = float64(res.FinishedTick) * spec.Cfg.TickSeconds
	}
	return oneResult{
		samples: att.Samples,
		stats: RunStats{
			Label:     label,
			Seconds:   seconds,
			EnergyJ:   res.EnergyJ,
			AvgPowerW: sumW / float64(ticks),
			Finished:  res.FinishedTick >= 0,
		},
	}
}
