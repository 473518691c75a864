package fleet

import (
	"testing"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
)

// TestMetricsExactAtEveryEnd pins the batched accounting at the three
// ways a run ends: one engine runs to its end, one is drained through
// Results mid-run, and one has every slot evicted, which mayad follows by
// dropping the engine without calling Results. Each leaves Ticks and
// Periods equal to the ticks and periods it stepped, and after at least
// sampleSteps periods every phase counter holds a sampled period's time.
func TestMetricsExactAtEveryEnd(t *testing.T) {
	const tenants, warmup, period = 3, 40, 20
	// 29 full periods and a trailing partial one of 7 ticks. The warmup
	// leaves the first period at step 2, so the partial period starts at
	// step 31 and is not sampled: only the last period's publish covers it.
	const maxTicks = 29*period + 7
	newEngine := func(seed uint64) (*Engine, *Metrics) {
		e := New(Spec{
			Config:      sim.Sys1(),
			Kind:        defense.RandomInputs,
			PeriodTicks: period,
			Tenants:     tenants,
			BaseSeed:    seed,
			WarmupTicks: warmup,
			MaxTicks:    maxTicks,
		})
		m := NewMetrics(telemetry.NewRegistry())
		e.SetMetrics(m)
		e.Start()
		return e, m
	}
	// stepped counts the ticks the engine's machines took after the
	// warmup and the periods whose decisions it made.
	stepped := func(e *Engine, periods int) (ticks, steps uint64) {
		for slot := range tenants {
			ticks += uint64(e.bank.Machine(slot).Tick() - warmup)
		}
		return ticks, uint64(periods)
	}
	// step advances e by up to n periods and returns how many ended at a
	// period boundary.
	step := func(e *Engine, n int) (periods int) {
		for range n {
			before, _ := e.Readings()
			more := e.StepPeriod()
			if after, _ := e.Readings(); after != before {
				periods++
			}
			if !more {
				break
			}
		}
		return periods
	}
	check := func(name string, m *Metrics, ticks, periods uint64) {
		t.Helper()
		if got := m.Ticks.Value(); got != ticks {
			t.Errorf("%s: maya_fleet_ticks_total = %d, want %d", name, got, ticks)
		}
		if got := m.Periods.Value(); got != periods {
			t.Errorf("%s: maya_fleet_periods_total = %d, want %d", name, got, periods)
		}
		for _, c := range []struct {
			name string
			c    *telemetry.Counter
		}{{"machine", m.MachineNs}, {"sense", m.SenseNs}, {"control", m.ControlNs}, {"actuate", m.ActuateNs}} {
			if c.c.Value() == 0 {
				t.Errorf("%s: maya_fleet_%s_ns_total is 0 after %d periods", name, c.name, periods)
			}
		}
	}

	// Run to the end: the last StepPeriod publishes, before any Results.
	full, mFull := newEngine(0xacc1)
	periods := step(full, 1<<20)
	if periods != 29 {
		t.Fatalf("full run stepped %d periods, want 29", periods)
	}
	ticks, steps := stepped(full, periods)
	if ticks != tenants*maxTicks {
		t.Fatalf("full run stepped %d ticks, want %d", ticks, tenants*maxTicks)
	}
	check("run to end", mFull, ticks, steps)

	// Drain mid-run: Results publishes what the last sample left over.
	drained, mDrained := newEngine(0xacc2)
	periods = step(drained, 13)
	ticks, steps = stepped(drained, periods)
	drained.Results()
	check("drained", mDrained, ticks, steps)

	// Evict every slot: removing the last one publishes.
	evicted, mEvicted := newEngine(0xacc3)
	periods = step(evicted, 11)
	ticks, steps = stepped(evicted, periods)
	for slot := range tenants {
		evicted.Evict(slot)
	}
	check("evicted", mEvicted, ticks, steps)
}
