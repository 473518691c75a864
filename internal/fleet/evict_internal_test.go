package fleet

import (
	"testing"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
)

// TestEvictedSlotStopsStepping pins what eviction frees: from the period
// boundary where slot 2 is evicted, its machine takes no further tick,
// and maya_fleet_ticks_total counts only the ticks the other slots step.
func TestEvictedSlotStopsStepping(t *testing.T) {
	const tenants, warmup, periods, evictAt = 4, 40, 20, 10
	e := New(Spec{
		Config:      sim.Sys1(),
		Kind:        defense.RandomInputs,
		PeriodTicks: 20,
		Tenants:     tenants,
		BaseSeed:    0xe71c,
		WarmupTicks: warmup,
		MaxTicks:    periods * 20,
	})
	m := NewMetrics(telemetry.NewRegistry())
	e.SetMetrics(m)
	e.Start()
	evicted := e.bank.Machine(2)
	var at int64
	for p := 1; ; p++ {
		more := e.StepPeriod()
		if p == evictAt {
			e.Evict(2)
			at = evicted.Tick()
		}
		if !more {
			break
		}
	}
	if at != warmup+evictAt*20 {
		t.Fatalf("slot 2 was evicted at machine tick %d, want %d", at, warmup+evictAt*20)
	}
	if got := evicted.Tick(); got != at {
		t.Fatalf("evicted slot's machine stepped on to tick %d after eviction at tick %d", got, at)
	}
	if got, want := m.Ticks.Value(), uint64(tenants*evictAt*20+(tenants-1)*(periods-evictAt)*20); got != want {
		t.Fatalf("maya_fleet_ticks_total = %d, want %d", got, want)
	}
	if got := e.bank.Machine(3).Tick(); got != warmup+periods*20 {
		t.Fatalf("survivor's machine at tick %d, want %d", got, warmup+periods*20)
	}
}
