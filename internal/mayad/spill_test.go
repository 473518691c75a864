package mayad

import (
	"testing"

	"github.com/maya-defense/maya/internal/telemetry"
)

func sampleN(i int) SpillSample { return SpillSample{Tenant: i % 3, Step: i, PowerW: float64(i)} }

// testSpill returns the spill of a never-started daemon bounded at limit
// samples, and the drop counter its registry exposes.
func testSpill(limit int) (*spill, *telemetry.Counter) {
	reg := telemetry.NewRegistry()
	srv := New(Config{SpillLimit: limit}, reg)
	return srv.spill, reg.Counter("maya_fleet_spill_dropped_total", "")
}

// TestSpillBoundedDropsOldest drives the daemon's spill past its limit
// with no reader, in one batch that fits and one that wraps, and checks
// drop-oldest semantics: the retained window is the newest `limit`
// samples in push order, and the drop count is exact.
func TestSpillBoundedDropsOldest(t *testing.T) {
	s, dropped := testSpill(4)
	var batch []SpillSample
	for i := 0; i < 10; i++ {
		batch = append(batch, sampleN(i))
	}
	s.push(batch[:3]...)
	s.push(batch[3:]...)
	if got := dropped.Value(); got != 6 {
		t.Fatalf("maya_fleet_spill_dropped_total = %d, want 6", got)
	}
	got := s.drain()
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
// as a reader drains before the limit is hit, the spill loses nothing and
// preserves order.
func TestSpillBoundedInBoundsIsLossless(t *testing.T) {
	s, dropped := testSpill(8)
	next := 0
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			s.push(sampleN(next))
			next++
		}
		got := s.drain()
		if len(got) != 8 {
			t.Fatalf("round %d: drained %d, want 8", round, len(got))
		}
		for i, smp := range got {
			if want := sampleN(next - 8 + i); smp != want {
				t.Fatalf("round %d sample %d = %+v, want %+v", round, i, smp, want)
			}
		}
	}
	if dropped.Value() != 0 {
		t.Fatalf("in-bounds use dropped %d samples", dropped.Value())
	}
}

// TestSpillWrapAfterPartialDrain exercises ring wrap with interleaved
// partial fills: head bookkeeping must survive drains at arbitrary fill
// levels, and an emptied ring drains as an empty, non-nil slice.
func TestSpillWrapAfterPartialDrain(t *testing.T) {
	s, dropped := testSpill(5)
	for i := 0; i < 3; i++ {
		s.push(sampleN(i))
	}
	if got := s.drain(); len(got) != 3 {
		t.Fatalf("drained %d, want 3", len(got))
	}
	for i := 3; i < 10; i++ { // 7 pushes into capacity 5: 2 drops
		s.push(sampleN(i))
	}
	if dropped.Value() != 2 {
		t.Fatalf("dropped = %d, want 2", dropped.Value())
	}
	got := s.drain()
	if len(got) != 5 {
		t.Fatalf("drained %d, want 5", len(got))
	}
	for i, smp := range got {
		if want := sampleN(5 + i); smp != want {
			t.Fatalf("sample %d = %+v, want %+v", i, smp, want)
		}
	}
	if got := s.drain(); got == nil || len(got) != 0 {
		t.Fatalf("drain after drain = %#v, want an empty slice", got)
	}
}
