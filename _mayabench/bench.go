package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/maya-defense/maya/internal/experiments"
	"github.com/maya-defense/maya/internal/telemetry"
)

// sizes fixes how much work each workload does. defaultSizes is the
// benchmark; the tests run the same code at a tiny size.
type sizes struct {
	// fleet-uniform: tenants admitted per round and their recorded ticks.
	uniformTenants, uniformTicks int
	// fleet-mixed: tenants per round and the range their recorded ticks
	// are drawn from. The range must span at least mixedTenants−1 control
	// periods, so that every tenant gets a length of its own.
	mixedTenants, mixedMinTicks, mixedMaxTicks int
	// warmupTicks precedes every fleet tenant's recording.
	warmupTicks int
	// attackScale sizes the attack datasets.
	attackScale experiments.Scale
	// suiteScale and suiteFilter select the suite run (nil: every entry).
	suiteScale  experiments.Scale
	suiteFilter *regexp.Regexp
	// warmReplays is the number of warm suite replays per pass.
	warmReplays int
	// bankProbes is the number of banks of one the traced run times per
	// defense.
	bankProbes int
}

func defaultSizes() sizes {
	return sizes{
		uniformTenants: 1000, uniformTicks: 10000,
		mixedTenants: 500, mixedMinTicks: 2000, mixedMaxTicks: 20000,
		warmupTicks: 2000,
		attackScale: experiments.Small(),
		suiteScale:  experiments.Small(),
		warmReplays: 1000,
		bankProbes:  16,
	}
}

// A run spreads its setups over its whole length, because a shared host
// runs faster and slower by a fifth or more for tens of seconds at a time:
// setups made in one burst would sample one such stretch, while the passes
// sample the run. So before every pass, and once more after the last, the
// run sets up repeatedly for setupSlice — at least once, at most
// maxSetupsPerSlice times. A setup longer than the slice (attack's takes
// seconds) is repeated only until the run has minSetups of them. setup_s
// is the median of all of them.
const (
	minSetups         = 3
	setupSlice        = 100 * time.Millisecond
	maxSetupsPerSlice = 100
)

// env is what every workload is built from.
type env struct {
	sz    sizes
	tally *tally
	// workDir holds the run's scratch files.
	workDir string
}

// pass is one timed repetition of a workload's operation.
type pass struct {
	// wall is the time the work took: throughput_per_s divides work by it.
	wall time.Duration
	// work counts the units completed: tenant-periods, classified traces
	// or suite entries.
	work float64
	// latMS holds the latency of every request the pass made, in ms.
	latMS []float64
	// digest hashes the pass's outputs. Every pass of a run must produce
	// the same one.
	digest string
}

// mix is one workload of the benchmark: one traffic mix.
type mix interface {
	// setup derives the inputs from the seed and brings the system to the
	// state its first timed operation needs. It is timed, and it runs
	// several times; each call replaces the state of the previous one.
	setup(seed uint64) error
	// pass runs the timed operation once. Spans go to tr under parent (tr
	// may be nil); ctx carries parent to the layers that trace themselves.
	pass(ctx context.Context, tr *telemetry.Tracer, parent telemetry.SpanContext) (pass, error)
	// layers returns the per-layer metrics of the layers this workload
	// feeds, taken from its last setup and pass and from probes of those
	// layers at the workload's shape. Every probed call is a span on clk.
	layers(clk layerClock) ([]metric, error)
}

type workloadDef struct {
	name string
	// minPasses is the fewest timed passes a run makes, however short its
	// time budget.
	minPasses int
	make      func(env) mix
}

var workloads = []workloadDef{
	{"fleet-uniform", 2, func(e env) mix { return &fleetWorkload{env: e} }},
	{"fleet-mixed", 2, func(e env) mix { return &fleetWorkload{env: e, mixed: true} }},
	{"attack", 2, func(e env) mix { return &attackWorkload{env: e} }},
	{"suite", 1, func(e env) mix { return &suiteWorkload{env: e} }},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// tally counts the operations a run attempts and the ones that fail: a
// non-201 admission, a non-200 download, a suite entry error, or an output
// check that does not hold.
type tally struct {
	attempted, failed int
}

// check counts one operation and reports it on stderr when it failed.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "mayabench: "+format+"\n", args...)
	}
	return ok
}

// metric is one measured value. n is the number of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type result struct {
	metrics []metric
	digest  string
}

// runEndToEnd measures a workload untraced: timed passes until budget is
// spent, with setups spread between them. Every setup and pass starts from
// a collected heap, so none pays for the garbage of the one before.
func runEndToEnd(def workloadDef, e env, seed uint64, budget time.Duration) (*result, error) {
	w := def.make(e)
	var setups []float64
	setUp := func() error {
		if len(setups) >= minSetups && setups[len(setups)-1] > setupSlice.Seconds() {
			return nil
		}
		var spent time.Duration
		for n := 0; n < maxSetupsPerSlice && (n == 0 || spent < setupSlice); n++ {
			runtime.GC()
			start := time.Now()
			if err := w.setup(seed); err != nil {
				return fmt.Errorf("%s setup: %w", def.name, err)
			}
			d := time.Since(start)
			spent += d
			setups = append(setups, d.Seconds())
		}
		return nil
	}

	var passes []pass
	var spent time.Duration
	for len(passes) < def.minPasses || spent < budget {
		if err := setUp(); err != nil {
			return nil, err
		}
		runtime.GC()
		start := time.Now()
		p, err := w.pass(context.Background(), nil, telemetry.SpanContext{})
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", def.name, len(passes), err)
		}
		spent += time.Since(start)
		passes = append(passes, p)
	}
	// The slice after the last pass, which also makes up minSetups.
	for n := 0; n == 0 || len(setups) < minSetups; n++ {
		if err := setUp(); err != nil {
			return nil, err
		}
	}

	rates := make([]float64, len(passes))
	for i, p := range passes {
		rates[i] = p.work / p.wall.Seconds()
		if i > 0 {
			e.tally.check(p.digest == passes[0].digest, "%s pass %d: outputs differ from pass 0", def.name, i)
		}
	}
	return &result{
		metrics: []metric{
			{"setup_s", median(setups), "s", len(setups)},
			{"throughput_per_s", median(rates), "1/s", len(rates)},
			{"peak_rss_mib", peakRSSMiB(), "MiB", 1},
		},
		digest: passes[0].digest,
	}, nil
}

// Trace ring sizing: room for every workload's spans, the suite's job and
// sampled tick spans, and the layer probes' per-call spans without
// wrapping.
const (
	traceCapacity = 1 << 18
	traceTickRate = 1000 // trace every 1000th control step of scalar engines
)

// runTraced is the traced run. The per-layer table is the same whichever
// workload is named, since every traced run reports all of it, so the run
// sets up every workload, makes one traced pass of each and takes each
// one's layer metrics. The named workload also makes an untraced pass
// first: its request latencies give latency_p50_ms and latency_p99_ms, and
// the traced pass's time over its time is trace_overhead_frac. trace.json
// and layers.json go to traceDir.
func runTraced(def workloadDef, e env, seed uint64, traceDir string) (*result, error) {
	ctx := context.Background()
	tr := telemetry.NewTracer(traceCapacity)
	tr.SetTickSample(traceTickRate)
	var out []metric
	var digest string
	for _, d := range workloads {
		w := d.make(e)
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s setup: %w", d.name, err)
		}
		var untraced pass
		if d.name == def.name {
			runtime.GC()
			var err error
			if untraced, err = w.pass(ctx, nil, telemetry.SpanContext{}); err != nil {
				return nil, fmt.Errorf("%s untraced pass: %w", d.name, err)
			}
		}

		runtime.GC()
		telemetry.SetActiveTrace(tr)
		root := tr.Start("workload."+d.name, "bench", telemetry.SpanContext{}, seed)
		traced, err := w.pass(telemetry.ContextWithSpan(ctx, root.Context()), tr, root.Context())
		root.End()
		telemetry.SetActiveTrace(nil)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", d.name, err)
		}

		if d.name == def.name {
			e.tally.check(traced.digest == untraced.digest, "%s: traced outputs differ from untraced ones", d.name)
			digest = untraced.digest
			n := len(untraced.latMS)
			out = append(out,
				metric{"latency_p50_ms", median(untraced.latMS), "ms", n},
				metric{"latency_p99_ms", percentile(untraced.latMS, 0.99), "ms", n},
				metric{"trace_overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds() - 1, "frac", 1})
		}
		span := tr.Start("layers."+d.name, "bench", telemetry.SpanContext{}, seed)
		lm, err := w.layers(layerClock{tr, span.Context()})
		span.End()
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", d.name, err)
		}
		out = append(out, lm...)
	}
	if err := writeTrace(traceDir, tr); err != nil {
		return nil, err
	}
	return &result{metrics: out, digest: digest}, nil
}

// layerClock times calls into one layer at a time on the tracer's clock;
// every call becomes a span under parent.
type layerClock struct {
	tr     *telemetry.Tracer
	parent telemetry.SpanContext
}

func (c layerClock) now() int64 { return c.tr.Clock() }

// span records the call of layer function name that began at start and
// has just returned, and returns its duration in ns.
func (c layerClock) span(name string, seq uint64, start int64) int64 {
	end := c.tr.Clock()
	c.tr.Complete(name, "layer", c.parent, seq, start, end-start, 0)
	return end - start
}

// writeTrace exports the tracer's spans as trace.json (Chrome trace-event
// format) and their per-name summary as layers.json.
func writeTrace(dir string, tr *telemetry.Tracer) error {
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "mayabench: trace ring dropped the %d oldest spans\n", dropped)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	events := tr.Snapshot()
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return fmt.Errorf("write trace.json: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(telemetry.Summarize(events), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(layers, '\n'), 0o644)
}

// median returns the middle of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nsTo converts a duration in ns to unit.
func nsTo(ns int64, unit time.Duration) float64 { return float64(ns) / float64(unit) }
