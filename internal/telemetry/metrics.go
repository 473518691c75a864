// Package telemetry is the measurement layer of the defense stack: a
// low-overhead metrics registry (counters, gauges, fixed-bucket histograms
// with Prometheus-style text exposition and JSONL export, plus constant
// info gauges for build identity), a per-tick flight recorder for the
// control loop, and the hierarchical structured tracer ([Tracer]) that
// attributes a whole pipeline run — suite, runner jobs, engine ticks —
// span by span.
//
// The package serves two masters with different constraints:
//
//   - The control loop runs every 20 ms simulated (and far faster in
//     wall-clock during sweeps), so recording on the hot path must be
//     allocation-free and cheap. All instruments are fixed-size structures
//     updated with atomic operations; callers resolve them once at setup
//     and hold direct pointers. The tracer extends the same discipline:
//     every method no-ops on a nil receiver with zero allocation, so
//     instrumentation points run unconditionally whether tracing is on or
//     off (CI gates this with the TelemetryHotPath zero-alloc benchmarks).
//   - Experiment reports must stay byte-identical for a fixed seed.
//     Instruments therefore never feed back into the simulation, and
//     everything recorded by the flight recorder is simulated-domain data
//     (no wall-clock timestamps), so flight traces are deterministic too.
//     Trace spans do carry wall-clock durations — attribution is their
//     whole point — but their IDs derive from job/tenant identity, never
//     from the clock, and nothing they observe reaches a decision. Only
//     the opt-in timing/telemetry report sections and trace exports carry
//     wall-clock values.
//
// Trace exports are Chrome trace-event JSON ([WriteChromeTrace],
// Perfetto-loadable) or JSONL ([WriteTraceJSONL]); [ParseTraceEvents]
// reads either back losslessly and [Summarize]/[WriteSummaryTable] fold a
// trace into a per-phase attribution table.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//maya:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
//
//maya:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a value that can go up and down (pool depth, last reading).
// All methods are safe for concurrent use and allocation-free.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
//
//maya:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge (compare-and-swap loop).
//
//maya:hotpath
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) reset() { g.bits.Store(0) }

// Histogram counts observations into fixed buckets. Bucket i counts values
// v <= Bounds[i] (and greater than Bounds[i-1]); one implicit overflow
// bucket catches everything above the last bound, matching Prometheus'
// cumulative `le` semantics on exposition. Observe is safe for concurrent
// use and allocation-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("telemetry: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
//
//maya:hotpath
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; small bucket lists make this
	// a handful of comparisons with no calls out.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n bounds start, start·factor, start·factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 {
		panic("telemetry: ExpBuckets needs start > 0 and factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets returns the default span-timing bounds in seconds:
// 1 µs … ~100 s in decade-and-a-half steps.
func DurationBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 30, 60, 120}
}
