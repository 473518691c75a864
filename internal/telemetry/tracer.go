package telemetry

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Structured tracing: hierarchical spans over the whole pipeline
// (experiments suite → runner job lifecycle → engine run → per-tick phase
// breakdown), recorded into a lock-free ring and exported as Chrome
// trace-event JSON (Perfetto-loadable) or JSONL.
//
// Two properties separate this from ordinary tracing libraries:
//
//   - Span identities are DETERMINISTIC: an ID is a pure function of
//     (parent ID, span name, sequence number) — job index, tenant identity,
//     tick step — never of the wall clock or allocation order. Two runs of
//     the same configuration produce the same span tree, so traces can be
//     diffed structurally even though their timestamps differ.
//   - The disabled path is free: every record operation on a nil *Tracer is
//     a no-op that performs no allocation and no atomic work, so
//     instrumentation points run unconditionally on the per-tick hot path
//     (the TelemetryHotPathTrace* benchmarks gate this in CI).
//
// Timestamps are host wall-clock durations since the tracer's epoch. They
// feed only trace exports and timing attribution, never decisions — the
// experiment reports are byte-identical with tracing on or off (test-
// enforced, like the flight recorder and metrics before it).

// SpanContext is the identity a span hands to its children: the
// deterministic span ID and the display lane (exported as the Chrome trace
// "tid") the subtree renders on.
type SpanContext struct {
	ID   uint64
	Lane uint32
}

// TraceEvent is one completed span as the ring stores it. All fields are
// value types (string headers copy without allocating), so recording is
// allocation-free.
type TraceEvent struct {
	// Name is the span's phase name ("tick.mask", "job.run", ...); the
	// per-phase attribution summary aggregates by it.
	Name string `json:"name"`
	// Cat is a coarse category ("suite", "runner", "engine", ...).
	Cat string `json:"cat,omitempty"`
	// Label optionally carries a human identity (the runner job's name).
	Label string `json:"label,omitempty"`
	// ID is the span's deterministic identity (see SpanID); Parent is the
	// enclosing span's ID (0 for roots).
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Lane groups the span's subtree for display (Chrome trace "tid").
	Lane uint32 `json:"lane"`
	// StartNS/DurNS locate the span on the tracer's clock (nanoseconds
	// since the tracer epoch).
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Arg is one numeric payload (tick step, job index, ...).
	Arg int64 `json:"arg,omitempty"`
}

// SpanID derives a span's deterministic identity from its parent's ID, its
// name, and a caller-chosen sequence number (job index, tick step, run
// index). Derivation is a pure function of those inputs — never the wall
// clock — so the same configuration yields the same span tree on every run.
func SpanID(parent uint64, name string, seq uint64) uint64 {
	h := parent ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	h ^= seq
	// SplitMix64 finalizer: break any remaining linear structure.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// laneOf derives a root span's display lane from its ID.
func laneOf(id uint64) uint32 {
	l := uint32(id ^ id>>32)
	if l == 0 {
		l = 1
	}
	return l
}

// NewRootContext builds a parentless SpanContext for a deterministic
// identity, for callers that want to group spans under a common root
// without emitting a root event.
func NewRootContext(name string, key uint64) SpanContext {
	id := SpanID(0, name, key)
	return SpanContext{ID: id, Lane: laneOf(id)}
}

// Tracer records completed spans into a fixed-capacity lock-free ring.
// Record claims a slot with one atomic add and writes in place, so any
// number of goroutines may record concurrently without locks; when the ring
// wraps, the oldest events are overwritten (counted by Dropped). Size the
// ring for the run, or sample (SetTickSample) to bound the volume.
//
// A nil *Tracer is valid everywhere and disables tracing at zero cost.
type Tracer struct {
	ring []TraceEvent
	mask uint64
	// cursor is the total number of events ever recorded; event i lives in
	// ring[i&mask] until overwritten.
	cursor atomic.Uint64
	epoch  time.Time
	// tickEvery samples the per-tick engine phases: step s is traced when
	// s%tickEvery == 0. Coarser levels (jobs, runs) are always recorded.
	tickEvery uint64
}

// DefaultTraceCapacity holds ~4 MiB of events: enough for a small-scale
// suite run at full tick sampling, and a bounded window of the newest
// events for anything larger.
const DefaultTraceCapacity = 1 << 16

// NewTracer returns a tracer holding the last capacity events (rounded up
// to a power of two; capacity <= 0 selects DefaultTraceCapacity). The
// tracer's clock epoch is fixed at creation.
//
//maya:wallclock the tracer epoch anchors host-time span timestamps by design
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{ring: make([]TraceEvent, n), mask: uint64(n - 1), epoch: time.Now(), tickEvery: 1}
}

// Enabled reports whether recording does anything (nil-safe).
func (t *Tracer) Enabled() bool { return t != nil }

// SetTickSample records only every n-th control tick's phase breakdown
// (n <= 1 records every tick). Call before the run; not synchronized with
// concurrent recording.
func (t *Tracer) SetTickSample(n int) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	t.tickEvery = uint64(n)
}

// TickSampled reports whether the per-tick phases of step should be traced.
//
//maya:hotpath
func (t *Tracer) TickSampled(step int) bool {
	return t != nil && step >= 0 && uint64(step)%t.tickEvery == 0
}

// Clock returns the tracer's current time: nanoseconds since its epoch.
// Span timestamps measure the host by design and never feed decisions.
//
//maya:wallclock trace timestamps measure the host by design
//maya:hotpath
func (t *Tracer) Clock() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Nanoseconds()
}

// Record appends one completed event. Lock-free and allocation-free: one
// atomic add claims a slot, the struct is copied in place. Concurrent
// recorders only conflict on a slot if one laps the other by a full ring —
// size the capacity so that cannot happen within a snapshot window.
//
//maya:hotpath
func (t *Tracer) Record(ev TraceEvent) {
	if t == nil {
		return
	}
	i := t.cursor.Add(1) - 1
	t.ring[i&t.mask] = ev
}

// Complete records a span that is already over: the caller measured
// [startNS, startNS+durNS) itself (engine tick phases, queue waits). The
// span's ID is derived from (parent, name, seq); its lane is inherited.
//
//maya:hotpath
func (t *Tracer) Complete(name, cat string, parent SpanContext, seq uint64, startNS, durNS, arg int64) {
	if t == nil {
		return
	}
	lane := parent.Lane
	id := SpanID(parent.ID, name, seq)
	if lane == 0 {
		lane = laneOf(id)
	}
	t.Record(TraceEvent{
		Name: name, Cat: cat,
		ID: id, Parent: parent.ID, Lane: lane,
		StartNS: startNS, DurNS: durNS, Arg: arg,
	})
}

// TraceSpan is an in-progress span. It is a value type: Start and End
// allocate nothing. Set Label/Arg between Start and End to attach the
// payload.
type TraceSpan struct {
	tracer  *Tracer
	name    string
	cat     string
	id      uint64
	parent  uint64
	lane    uint32
	startNS int64

	// Label optionally names the work (runner job name); Arg is one numeric
	// payload. Both are recorded at End.
	Label string
	Arg   int64
}

// Start begins a span under parent with the given deterministic sequence
// number. A zero parent starts a new root (fresh lane). Safe on a nil
// tracer: the returned span is inert.
func (t *Tracer) Start(name, cat string, parent SpanContext, seq uint64) TraceSpan {
	if t == nil {
		return TraceSpan{}
	}
	id := SpanID(parent.ID, name, seq)
	lane := parent.Lane
	if lane == 0 {
		lane = laneOf(id)
	}
	return TraceSpan{
		tracer: t, name: name, cat: cat,
		id: id, parent: parent.ID, lane: lane,
		startNS: t.Clock(),
	}
}

// End records the span. Calling End on an inert span is a no-op.
func (s *TraceSpan) End() {
	t := s.tracer
	if t == nil {
		return
	}
	t.Record(TraceEvent{
		Name: s.name, Cat: s.cat, Label: s.Label,
		ID: s.id, Parent: s.parent, Lane: s.lane,
		StartNS: s.startNS, DurNS: t.Clock() - s.startNS, Arg: s.Arg,
	})
}

// Context returns the span's identity for its children (zero for inert
// spans).
func (s *TraceSpan) Context() SpanContext {
	if s.tracer == nil {
		return SpanContext{}
	}
	return SpanContext{ID: s.id, Lane: s.lane}
}

// Len returns how many events are currently held (≤ capacity).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	total := t.cursor.Load()
	if total < uint64(len(t.ring)) {
		return int(total)
	}
	return len(t.ring)
}

// Total returns how many events were ever recorded.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.cursor.Load()
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	total := t.cursor.Load()
	if total <= uint64(len(t.ring)) {
		return 0
	}
	return total - uint64(len(t.ring))
}

// Snapshot returns the held events oldest-first. Take it after concurrent
// recording has quiesced (end of run): a recorder racing the snapshot can
// leave a partially updated slot in the copy.
func (t *Tracer) Snapshot() []TraceEvent {
	if t == nil {
		return nil
	}
	total := t.cursor.Load()
	n := uint64(t.Len())
	out := make([]TraceEvent, 0, n)
	for i := total - n; i < total; i++ {
		out = append(out, t.ring[i&t.mask])
	}
	return out
}

// Ambient tracer: the pipeline's layers (runner pools, trace collection,
// engines constructed deep inside figure pipelines) attach to one
// process-wide tracer instead of threading a handle through every
// signature. Parent identity still flows explicitly (ContextWithSpan), so
// the hierarchy stays exact. Nil means tracing is off everywhere.
var activeTrace atomic.Pointer[Tracer]

// SetActiveTrace installs (or, with nil, removes) the process-wide tracer.
// Call it at startup, before the instrumented pipelines run.
func SetActiveTrace(t *Tracer) {
	activeTrace.Store(t)
}

// ActiveTrace returns the process-wide tracer (nil when tracing is off).
//
//maya:hotpath
func ActiveTrace() *Tracer {
	return activeTrace.Load()
}

// spanCtxKey keys SpanContext values in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span identity, so nested
// worker pools parent their spans under the job that spawned them.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the span identity carried by ctx (zero if none).
func SpanFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// PhaseStat aggregates every event sharing one span name: the per-phase
// attribution row behind `mayactl trace-summary` and the run manifest.
type PhaseStat struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	MinNS   int64  `json:"min_ns"`
	MaxNS   int64  `json:"max_ns"`
}

// Mean returns the mean span duration.
func (p PhaseStat) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return time.Duration(p.TotalNS / int64(p.Count))
}

// Summarize aggregates events by span name, sorted by total time
// descending (name ascending on ties, so the table is deterministic).
func Summarize(events []TraceEvent) []PhaseStat {
	byName := make(map[string]*PhaseStat)
	order := make([]string, 0, 16)
	for _, ev := range events {
		p := byName[ev.Name]
		if p == nil {
			p = &PhaseStat{Name: ev.Name, MinNS: ev.DurNS, MaxNS: ev.DurNS}
			byName[ev.Name] = p
			order = append(order, ev.Name)
		}
		p.Count++
		p.TotalNS += ev.DurNS
		if ev.DurNS < p.MinNS {
			p.MinNS = ev.DurNS
		}
		if ev.DurNS > p.MaxNS {
			p.MaxNS = ev.DurNS
		}
	}
	out := make([]PhaseStat, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TraceWall returns the wall-clock interval the events cover (max end −
// min start), the denominator of the summary's share column.
func TraceWall(events []TraceEvent) time.Duration {
	if len(events) == 0 {
		return 0
	}
	minStart, maxEnd := events[0].StartNS, events[0].StartNS+events[0].DurNS
	for _, ev := range events[1:] {
		if ev.StartNS < minStart {
			minStart = ev.StartNS
		}
		if end := ev.StartNS + ev.DurNS; end > maxEnd {
			maxEnd = end
		}
	}
	return time.Duration(maxEnd - minStart)
}

// WriteSummaryTable renders the per-phase attribution table for a set of
// events. The wall% column is each phase's total time as a share of the
// trace's wall-clock window; because spans nest (a job span contains its
// ticks) and lanes run concurrently, the column can exceed 100% in total —
// it attributes, it does not partition.
func WriteSummaryTable(w io.Writer, events []TraceEvent) error {
	stats := Summarize(events)
	wall := TraceWall(events)
	if _, err := fmt.Fprintf(w, "%-24s %8s %12s %12s %12s %12s %7s\n",
		"phase", "count", "total", "mean", "min", "max", "wall%"); err != nil {
		return err
	}
	for _, p := range stats {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(p.TotalNS) / float64(wall)
		}
		if _, err := fmt.Fprintf(w, "%-24s %8d %12s %12s %12s %12s %6.1f%%\n",
			p.Name, p.Count,
			time.Duration(p.TotalNS).Round(time.Microsecond),
			p.Mean().Round(time.Nanosecond),
			time.Duration(p.MinNS).Round(time.Nanosecond),
			time.Duration(p.MaxNS).Round(time.Nanosecond),
			share); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-24s %8d %12s  (trace wall window)\n",
		"events", len(events), wall.Round(time.Microsecond))
	return err
}
