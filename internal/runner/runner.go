// Package runner schedules experiment jobs across a bounded worker pool.
// It exists so the evaluation sweep — figure pipelines, ablations, attack
// training folds, per-trace collection runs — can use every core without
// giving up reproducibility:
//
//   - Each job receives its own random stream, derived from the pool's base
//     seed and the job's submission index via rng.ChildSeed. Derivation is a
//     pure function of (seed, index), so results are bit-for-bit identical
//     regardless of the worker count or the order in which jobs finish.
//   - Results are collected in submission order.
//   - A panicking job degrades to a reported error (with the captured stack)
//     instead of killing the whole sweep.
//   - Cancellation via context.Context stops feeding new jobs; an optional
//     per-job timeout abandons stragglers while the rest of the sweep
//     proceeds.
//   - Every result carries wall-clock and (optionally) allocation accounting
//     so experiment summaries can report where the sweep's time went.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/telemetry"
)

// Options configures a pool invocation.
type Options struct {
	// Workers is the number of concurrent worker goroutines. Values <= 0
	// mean GOMAXPROCS. Workers == 1 runs jobs serially in submission order.
	Workers int
	// Timeout caps each job's wall-clock time. 0 disables. A timed-out job
	// is abandoned (its goroutine is left to finish and be collected; jobs
	// that honor their context exit early) and reported with TimedOut set.
	Timeout time.Duration
	// Seed is the base seed from which every job's private stream is
	// derived (child i gets rng.NewChild(Seed, i)).
	Seed uint64
	// AllocStats enables per-job allocation deltas via runtime.ReadMemStats.
	// The read is cheap relative to experiment-sized jobs but not to
	// microsecond-sized ones, and under concurrency the delta attributes
	// other workers' allocations to the job, so it is an upper bound.
	AllocStats bool
	// Metrics, when non-nil, instruments the pool (see NewMetrics).
	// Instrumentation never changes scheduling or results.
	Metrics *Metrics
	// TraceParent explicitly parents this pool's job spans when the
	// process-wide tracer (telemetry.ActiveTrace) is installed. When zero,
	// the parent is taken from the span carried by the context passed to
	// Run, so nested pools chain automatically. Tracing, like Metrics,
	// never changes scheduling or results.
	TraceParent telemetry.SpanContext
}

// Metrics instruments a pool: job lifecycle counters, queue-wait and
// run-time distributions, and the in-flight depth. One instance may be
// shared by several Run invocations (a suite and its nested collection
// sweeps); the counters then aggregate across pools.
type Metrics struct {
	// JobsStarted / JobsDone count jobs handed to a worker and finished
	// (including failures); Cancelled counts jobs never started because the
	// sweep's context ended first.
	JobsStarted *telemetry.Counter
	JobsDone    *telemetry.Counter
	Cancelled   *telemetry.Counter
	// Panics counts jobs that panicked (captured as *PanicError); Timeouts
	// counts jobs abandoned at Options.Timeout.
	Panics   *telemetry.Counter
	Timeouts *telemetry.Counter
	// InFlight is the number of jobs currently executing.
	InFlight *telemetry.Gauge
	// QueueWait and RunTime observe, in seconds, how long each job waited
	// for a worker and how long it ran.
	QueueWait *telemetry.Histogram
	RunTime   *telemetry.Histogram
	// AllocBytes observes per-job allocation volume (needs AllocStats).
	AllocBytes *telemetry.Histogram
}

// NewMetrics registers the pool instruments in reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		JobsStarted: reg.Counter("runner_jobs_started_total", "jobs handed to a worker"),
		JobsDone:    reg.Counter("runner_jobs_done_total", "jobs finished (including failures)"),
		Cancelled:   reg.Counter("runner_jobs_cancelled_total", "jobs never started because the sweep was cancelled"),
		Panics:      reg.Counter("runner_job_panics_total", "jobs that panicked (captured by the pool)"),
		Timeouts:    reg.Counter("runner_job_timeouts_total", "jobs abandoned at the per-job timeout"),
		InFlight:    reg.Gauge("runner_jobs_in_flight", "jobs currently executing"),
		QueueWait:   reg.Histogram("runner_job_queue_wait_seconds", "wait from pool start to job start", telemetry.DurationBuckets()),
		RunTime:     reg.Histogram("runner_job_run_seconds", "job wall-clock run time", telemetry.DurationBuckets()),
		AllocBytes:  reg.Histogram("runner_job_alloc_bytes", "per-job heap allocation volume", telemetry.ExpBuckets(1024, 8, 10)),
	}
}

// Job is one named unit of work.
type Job[T any] struct {
	// Name labels the job in results and error reports.
	Name string
	// Run executes the job. The stream is the job's private deterministic
	// RNG; ctx is cancelled when the sweep is cancelled or the job's
	// timeout elapses.
	Run func(ctx context.Context, r *rng.Stream) (T, error)
}

// Result is one job's outcome, in submission order.
type Result[T any] struct {
	Name  string
	Value T
	// Err is non-nil if the job returned an error, panicked (a *PanicError),
	// timed out, or was cancelled before starting.
	Err error
	// Wall is the job's wall-clock duration (zero if never started).
	Wall time.Duration
	// AllocBytes is the job's heap-allocation delta when Options.AllocStats
	// is set; approximate under concurrency.
	AllocBytes uint64
	// TimedOut reports that the job exceeded Options.Timeout.
	TimedOut bool
}

// PanicError wraps a panic captured inside a job.
type PanicError struct {
	Job   string
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("job %q panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// Run executes jobs across the pool and returns their results in submission
// order. It never returns early: every job either ran, timed out, or is
// marked cancelled.
func Run[T any](ctx context.Context, opts Options, jobs []Job[T]) []Result[T] {
	results := make([]Result[T], len(jobs))
	for i, j := range jobs {
		results[i].Name = j.Name
	}
	if len(jobs) == 0 {
		return results
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// Each job becomes two trace spans under pt.parent: "job.queue_wait"
	// (pool start → worker pickup) and "job.run" (execution), both keyed by
	// the submission index so span identities are deterministic.
	pt := poolTrace{tr: telemetry.ActiveTrace(), parent: opts.TraceParent}
	if pt.parent == (telemetry.SpanContext{}) {
		pt.parent = telemetry.SpanFromContext(ctx)
	}
	pt.startNS = pt.tr.Clock()

	poolStart := time.Now() //maya:wallclock queue-wait metrics baseline; never feeds results
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runJob(ctx, opts, poolStart, pt, i, jobs[i], &results[i])
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Jobs never handed to a worker report the sweep's cancellation.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Wall == 0 && results[i].Err == nil {
				results[i].Err = err
				if opts.Metrics != nil {
					opts.Metrics.Cancelled.Inc()
				}
			}
		}
	}
	return results
}

// jobOutcome carries a finished job's payload from its goroutine.
type jobOutcome[T any] struct {
	value T
	err   error
	alloc uint64
	wall  time.Duration
}

// poolTrace carries one Run invocation's tracing state to its workers.
type poolTrace struct {
	tr      *telemetry.Tracer
	parent  telemetry.SpanContext
	startNS int64
}

// runJob executes one job with panic capture and the per-job timeout,
// writing into *out (each index is owned by exactly one worker).
func runJob[T any](ctx context.Context, opts Options, poolStart time.Time, pt poolTrace, i int, job Job[T], out *Result[T]) {
	if m := opts.Metrics; m != nil {
		m.JobsStarted.Inc()
		m.InFlight.Add(1)
		m.QueueWait.Observe(time.Since(poolStart).Seconds()) //maya:wallclock queue-wait metrics
		defer func() {
			m.InFlight.Add(-1)
			m.JobsDone.Inc()
			m.RunTime.Observe(out.Wall.Seconds())
			if out.TimedOut {
				m.Timeouts.Inc()
			}
			var pe *PanicError
			if errors.As(out.Err, &pe) {
				m.Panics.Inc()
			}
			if opts.AllocStats && out.Err == nil {
				m.AllocBytes.Observe(float64(out.AllocBytes))
			}
		}()
	}
	jctx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	if pt.tr.Enabled() {
		pickupNS := pt.tr.Clock()
		pt.tr.Complete("job.queue_wait", "runner", pt.parent, uint64(i), pt.startNS, pickupNS-pt.startNS, int64(i))
		sp := pt.tr.Start("job.run", "runner", pt.parent, uint64(i))
		sp.Label = job.Name
		sp.Arg = int64(i)
		// The job's own span identity rides the context so nested pools and
		// engines parent under this job. A timed-out job's span ends at
		// abandonment, not at the straggler's eventual exit.
		jctx = telemetry.ContextWithSpan(jctx, sp.Context())
		defer sp.End()
	}
	// The job runs in its own goroutine so a timeout can abandon it; the
	// buffered channel lets an abandoned job finish and be collected. The
	// job's private stream is derived inside the goroutine that owns it —
	// derivation is a pure function of (seed, index), so where it happens
	// does not matter for determinism, but single ownership does for races.
	ch := make(chan jobOutcome[T], 1)
	start := time.Now() //maya:wallclock per-job wall accounting; never feeds results
	go func() {
		var o jobOutcome[T]
		defer func() {
			if p := recover(); p != nil {
				o.err = &PanicError{Job: job.Name, Value: p, Stack: debug.Stack()}
			}
			o.wall = time.Since(start) //maya:wallclock per-job wall accounting
			ch <- o
		}()
		var before runtime.MemStats
		if opts.AllocStats {
			runtime.ReadMemStats(&before)
		}
		o.value, o.err = job.Run(jctx, rng.NewChild(opts.Seed, uint64(i)))
		if opts.AllocStats {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			o.alloc = after.TotalAlloc - before.TotalAlloc
		}
	}()

	select {
	case o := <-ch:
		out.Value, out.Err, out.AllocBytes, out.Wall = o.value, o.err, o.alloc, o.wall
	case <-jctx.Done():
		out.Err = jctx.Err()
		out.Wall = time.Since(start) //maya:wallclock abandoned-job wall accounting
		out.TimedOut = opts.Timeout > 0 && ctx.Err() == nil
	}
}

// MapN fans an index range [0, n) across the pool and returns the values in
// index order. The first job error (in submission order) is returned; values
// of failed jobs are their zero value.
func MapN[U any](ctx context.Context, opts Options, n int, fn func(ctx context.Context, i int, r *rng.Stream) (U, error)) ([]U, error) {
	jobs := make([]Job[U], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[U]{
			Name: fmt.Sprintf("#%d", i),
			Run: func(ctx context.Context, r *rng.Stream) (U, error) {
				return fn(ctx, i, r)
			},
		}
	}
	results := Run(ctx, opts, jobs)
	values := make([]U, n)
	var firstErr error
	for i, res := range results {
		values[i] = res.Value
		if res.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("job %d: %w", i, res.Err)
		}
	}
	return values, firstErr
}
