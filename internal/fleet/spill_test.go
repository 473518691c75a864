package fleet

import (
	"testing"

	"github.com/maya-defense/maya/internal/telemetry"
)

func sampleN(i int) Sample { return Sample{Step: i, Tenant: i % 3, PowerW: float64(i)} }

// TestSpillBoundedDropsOldest drives a bounded spill past its limit with
// no reader and checks drop-oldest semantics: the retained window is the
// newest `limit` samples in push order, and the drop count is exact.
func TestSpillBoundedDropsOldest(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	s := NewSpill(4)
	s.SetDropCounter(m.SpillDropped)
	for i := 0; i < 10; i++ {
		s.push(sampleN(i))
	}
	if got := s.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	if got := m.SpillDropped.Value(); got != 6 {
		t.Fatalf("maya_fleet_spill_dropped_total = %d, want 6", got)
	}
	got := s.Drain()
	if len(got) != 4 {
		t.Fatalf("drained %d samples, want 4", len(got))
	}
	for i, smp := range got {
		if smp != sampleN(6+i) {
			t.Fatalf("sample %d = %+v, want %+v (newest window)", i, smp, sampleN(6+i))
		}
	}
}

// TestSpillBoundedInBoundsIsLossless checks the in-bounds case: as long
// as a reader drains before the limit is hit, a bounded spill loses
// nothing and preserves order.
func TestSpillBoundedInBoundsIsLossless(t *testing.T) {
	s := NewSpill(8)
	next := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			s.push(sampleN(next))
			next++
		}
		got := s.Drain()
		if len(got) != 8 {
			t.Fatalf("round %d: drained %d, want 8", round, len(got))
		}
		for i, smp := range got {
			if want := sampleN(next - 8 + i); smp != want {
				t.Fatalf("round %d sample %d = %+v, want %+v", round, i, smp, want)
			}
		}
	}
	if s.Dropped() != 0 {
		t.Fatalf("in-bounds use dropped %d samples", s.Dropped())
	}
}

// TestSpillWrapAfterPartialDrain exercises ring wrap with interleaved
// partial fills: head bookkeeping must survive drains at arbitrary fill
// levels.
func TestSpillWrapAfterPartialDrain(t *testing.T) {
	s := NewSpill(5)
	for i := 0; i < 3; i++ {
		s.push(sampleN(i))
	}
	if got := s.Drain(); len(got) != 3 {
		t.Fatalf("drained %d, want 3", len(got))
	}
	for i := 3; i < 10; i++ { // 7 pushes into capacity 5: 2 drops
		s.push(sampleN(i))
	}
	if s.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped())
	}
	got := s.Drain()
	if len(got) != 5 {
		t.Fatalf("drained %d, want 5", len(got))
	}
	for i, smp := range got {
		if want := sampleN(5 + i); smp != want {
			t.Fatalf("sample %d = %+v, want %+v", i, smp, want)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain", s.Len())
	}
}
