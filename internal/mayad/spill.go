package mayad

import (
	"sync"

	"github.com/maya-defense/maya/internal/telemetry"
)

// SpillSample is one tenant's power reading at one control-period
// boundary, as GET /spill serves it.
type SpillSample struct {
	Tenant int     `json:"tenant"`
	Step   int     `json:"step"`
	PowerW float64 `json:"power_w"`
}

// spill is the daemon's one observation tap: a fixed ring of the newest
// Config.SpillLimit samples over every tenant, with drop-oldest semantics,
// because a /spill reader is optional: one that never shows up costs a
// bounded amount of memory and a drop counter, not an OOM. While a reader
// drains before the ring fills, no sample is lost and order is preserved.
//
// The scheduler goroutine pushes each pass's readings after the pass's
// join and HTTP handlers drain; the mutex orders the two and guards
// nothing else.
type spill struct {
	mu sync.Mutex
	// buf is a ring holding n samples starting at head.
	buf     []SpillSample
	head, n int

	dropped *telemetry.Counter
}

func newSpill(limit int, dropped *telemetry.Counter) *spill {
	return &spill{buf: make([]SpillSample, limit), dropped: dropped}
}

// push appends samples in order, overwriting the oldest once the ring is
// full.
func (s *spill) push(smps ...SpillSample) {
	var dropped uint64
	s.mu.Lock()
	for _, smp := range smps {
		if s.n == len(s.buf) {
			s.buf[s.head] = smp
			s.head = (s.head + 1) % len(s.buf)
			dropped++
			continue
		}
		s.buf[(s.head+s.n)%len(s.buf)] = smp
		s.n++
	}
	s.mu.Unlock()
	s.dropped.Add(dropped)
}

// drain removes and returns every buffered sample, oldest first. An empty
// ring returns an empty, non-nil slice, which encodes as a JSON array.
func (s *spill) drain() []SpillSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SpillSample, s.n)
	for i := range out {
		out[i] = s.buf[(s.head+i)%len(s.buf)]
	}
	s.head, s.n = 0, 0
	return out
}
