package fleet

import (
	"sync"

	"github.com/maya-defense/maya/internal/telemetry"
)

// Sample is one tenant's per-period reading as spilled to a concurrent
// observer.
type Sample struct {
	Step   int
	Tenant int
	PowerW float64
}

// Spill is the fleet's data seam with outside goroutines: a mutex-guarded
// buffer the engine pushes one Sample per tenant into at every control
// period, for a reader on another goroutine to Drain while the fleet runs.
// Everything else in the engine — the machines, the flight recorders,
// the result accumulators — belongs to the goroutine that steps it. The
// race test drives a fleet and a draining reader together under -race to
// prove that state is never shared mutably across the boundary.
//
// The buffer is a fixed ring with drop-oldest semantics, because mayad's
// subscribers are optional: a reader that never shows up costs a bounded
// amount of memory and a drop counter, not an OOM. While a reader drains
// before the ring fills, no sample is lost and order is preserved. Create
// one with NewSpill.
type Spill struct {
	mu sync.Mutex
	// buf is a ring holding `n` samples starting at `head`.
	buf     []Sample
	head, n int

	dropped uint64
	dropC   *telemetry.Counter
}

// NewSpill returns a spill retaining at most limit samples, dropping the
// oldest beyond that. limit must be positive.
func NewSpill(limit int) *Spill {
	if limit <= 0 {
		panic("fleet: NewSpill needs a positive limit")
	}
	return &Spill{buf: make([]Sample, limit)}
}

// SetDropCounter mirrors drops into a telemetry counter (conventionally
// the registry's maya_fleet_spill_dropped_total); nil detaches.
func (s *Spill) SetDropCounter(c *telemetry.Counter) {
	s.mu.Lock()
	s.dropC = c
	s.mu.Unlock()
}

// push appends samples from the engine's goroutine.
func (s *Spill) push(smp Sample) {
	s.mu.Lock()
	if s.n == len(s.buf) {
		// Full: overwrite the oldest sample.
		s.buf[s.head] = smp
		s.head = (s.head + 1) % len(s.buf)
		s.dropped++
		c := s.dropC
		s.mu.Unlock()
		if c != nil {
			c.Inc()
		}
		return
	}
	s.buf[(s.head+s.n)%len(s.buf)] = smp
	s.n++
	s.mu.Unlock()
}

// Drain removes and returns all buffered samples, oldest first.
func (s *Spill) Drain() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]Sample, s.n)
	for i := range out {
		out[i] = s.buf[(s.head+i)%len(s.buf)]
	}
	s.head, s.n = 0, 0
	return out
}

// Len reports the number of buffered samples.
func (s *Spill) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped reports how many samples drop-oldest has discarded in total.
func (s *Spill) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
