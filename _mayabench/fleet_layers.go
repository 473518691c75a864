package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/mayad"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
)

// maxUnaccounted is the largest share of fleet.Engine.StepPeriod's wall
// time its phase timers may leave unexplained.
const maxUnaccounted = 0.15

func (w *fleetWorkload) layers(clk layerClock) ([]metric, error) {
	if w.mixed {
		return w.bankLayers(clk)
	}
	return w.uniformLayers(clk)
}

// designMetric reports how long setup took to synthesize machine's design.
func (w *fleetWorkload) designMetric(machine string) metric {
	return metric{"core.design_ms." + machine, nsTo(w.designNS[machine], time.Millisecond), "ms", 1}
}

// uniformLayers times fleet-uniform's bank outside the daemon. One
// fleet.Engine run with fleet.Metrics attached gives the engine's own
// phase times (machine step, sensor reads, control, actuation, each with
// the trace recording that follows it), its StepPeriod wall time, and its
// allocations and retained heap. The replay then splits the control phase
// and must reproduce the engine's traces bit for bit. Last come the
// exports a round serves and the admission call, without HTTP.
func (w *fleetWorkload) uniformLayers(clk layerClock) ([]metric, error) {
	cfg := sim.Sys1()
	art := w.designs[cfg.Name]
	spec := fleetSpec(cfg, defense.MayaGS, art, w.specs)
	T := spec.Tenants

	runtime.GC()
	var before, started, stepped, after runtime.MemStats
	runtime.ReadMemStats(&before)
	eng := fleet.New(spec)
	fm := fleet.NewMetrics(telemetry.NewRegistry())
	eng.SetMetrics(fm)
	eng.Start()
	runtime.ReadMemStats(&started)
	t0 := clk.now()
	for eng.StepPeriod() {
	}
	stepNS := clk.span("fleet.step_periods", 0, t0)
	runtime.ReadMemStats(&stepped)
	ref := eng.Results()
	eng = nil
	runtime.GC()
	runtime.ReadMemStats(&after)

	tp := float64(fm.Ticks.Value()) / float64(spec.PeriodTicks) // tenant-periods
	n := int(tp)
	perTP := func(c *telemetry.Counter) float64 { return float64(c.Value()) / tp }
	phases := []metric{
		{"fleet.machine_ns", perTP(fm.MachineNs), "ns", n},
		{"fleet.sense_ns", perTP(fm.SenseNs), "ns", n},
		{"fleet.control_ns", perTP(fm.ControlNs), "ns", n},
		{"fleet.actuate_ns", perTP(fm.ActuateNs), "ns", n},
	}
	stepPer := float64(stepNS) / tp
	var phased float64
	for _, m := range phases {
		phased += m.Value
	}
	unaccounted := 1 - phased/stepPer
	w.tally.check(unaccounted <= maxUnaccounted,
		"fleet phases leave %.1f%% of StepPeriod unaccounted (limit %.0f%%)", 100*unaccounted, 100*maxUnaccounted)
	out := append(phases,
		metric{"fleet.step_period_ns", stepPer, "ns", n},
		metric{"fleet.unaccounted_frac", unaccounted, "frac", n},
		metric{"fleet.allocs_per_tenant_period", float64(stepped.Mallocs-started.Mallocs) / tp, "count", n},
		metric{"fleet.bytes_per_tenant_period", float64(stepped.TotalAlloc-started.TotalAlloc) / tp, "bytes", n},
		metric{"fleet.retained_bytes_per_tenant", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(T), "bytes", T},
	)

	t0 = clk.now()
	err := fleet.WriteCSV(io.Discard, ref, nil)
	out = append(out, metric{"fleet.write_csv_ms", nsTo(clk.span("fleet.write_csv", 0, t0), time.Millisecond), "ms", 1})
	if err != nil {
		return nil, err
	}
	encode := make([]float64, T)
	var buf bytes.Buffer
	for t, res := range ref {
		buf.Reset()
		t0 := clk.now()
		err := tenantDataset(w.specs[t], cfg, res).WriteBinary(&buf)
		encode[t] = nsTo(clk.span("trace.write_binary", uint64(t), t0), time.Microsecond)
		if err != nil {
			return nil, err
		}
	}
	out = append(out, metric{"trace.write_binary_us", median(encode), "us", T})

	// The replay runs after the engine's traces are reduced to digests, so
	// neither run's garbage collection pays for the other's traces.
	want := make([][32]byte, T)
	for t, res := range ref {
		want[t] = runDigest(res)
	}
	ref = nil
	runtime.GC()
	split, got, err := replayFleet(spec, clk)
	if err != nil {
		return nil, err
	}
	differ := 0
	for t := range want {
		if got[t] != want[t] {
			differ++
		}
	}
	w.tally.check(differ == 0, "fleet replay: %d of %d tenants differ from fleet.Engine", differ, T)
	for _, name := range replayStages {
		out = append(out, metric{name + "_ns", float64(split[name]) / tp, "ns", n})
	}

	// Admission without HTTP: Server.Admit on a daemon that is not started.
	srv := mayad.New(mayad.Config{Shards: 1, MaxTenants: T, QueueDepth: T,
		DesignFor: func(sim.Config) (*core.Design, error) { return art, nil }}, nil)
	admit := make([]float64, T)
	for i, sp := range w.specs {
		t0 := clk.now()
		_, err := srv.Admit(sp)
		admit[i] = nsTo(clk.span("mayad.admit", uint64(i), t0), time.Microsecond)
		w.tally.check(err == nil, "Server.Admit: %v", err)
	}
	srv.Drain()
	return append(out,
		metric{"mayad.admit_us", median(admit), "us", T},
		w.designMetric(cfg.Name)), nil
}

// bankLayers times banks of one, fleet-mixed's shape, outside the daemon:
// bankProbes single-tenant fleets on sys1 per defense, plus Maya GS under
// the kitchen-sink fault plan and with a flight recorder.
func (w *fleetWorkload) bankLayers(clk layerClock) ([]metric, error) {
	type times struct{ new, step, results, flush []float64 }
	art := w.designs[sim.Sys1().Name]
	probe := func(label string, sp mayad.TenantSpec) (times, error) {
		var tm times
		for b := 0; b < w.sz.bankProbes; b++ {
			sp.Index = b
			spec, err := soloSpec(sp, art)
			if err != nil {
				return tm, err
			}
			t0 := clk.now()
			eng := fleet.New(spec)
			tm.new = append(tm.new, nsTo(clk.span("fleet.new."+label, uint64(b), t0), time.Microsecond))
			eng.Start()
			t0 = clk.now()
			periods := 0
			for more := true; more; periods++ {
				more = eng.StepPeriod()
			}
			tm.step = append(tm.step, float64(clk.span("fleet.run."+label, uint64(b), t0))/float64(periods))
			t0 = clk.now()
			res := eng.Results()
			tm.results = append(tm.results, nsTo(clk.span("fleet.results."+label, uint64(b), t0), time.Microsecond))
			if f := res[0].Flight; f != nil {
				t0 = clk.now()
				err := f.Flush(io.Discard)
				tm.flush = append(tm.flush, nsTo(clk.span("telemetry.flight_flush", uint64(b), t0), time.Microsecond))
				if err != nil {
					return tm, fmt.Errorf("flight flush: %w", err)
				}
			}
		}
		return tm, nil
	}
	base := mayad.TenantSpec{
		Machine: "sys1", Workload: "blackscholes", Scale: 0.2, Seed: specSeed(w.seed),
		WarmupTicks: w.sz.warmupTicks, MaxTicks: w.sz.uniformTicks,
	}
	n := w.sz.bankProbes
	var out []metric
	var gs times
	for _, kind := range defense.KindNames {
		sp := base
		sp.Defense = kind
		tm, err := probe(kind, sp)
		if err != nil {
			return nil, err
		}
		out = append(out,
			metric{"fleet.new_us." + kind, median(tm.new), "us", n},
			metric{"fleet.step_period_ns." + kind, median(tm.step), "ns", n})
		if kind == "gs" {
			gs = tm
		}
	}
	faulted := base
	faulted.Defense, faulted.Faults = "gs", "kitchen-sink"
	ft, err := probe("faulted", faulted)
	if err != nil {
		return nil, err
	}
	flight := base
	flight.Defense, flight.Flight = "gs", true
	fr, err := probe("flight", flight)
	if err != nil {
		return nil, err
	}
	return append(out,
		metric{"fleet.step_period_ns.faulted", median(ft.step), "ns", n},
		metric{"fleet.results_us", median(gs.results), "us", n},
		metric{"telemetry.flight_flush_us", median(fr.flush), "us", n},
		w.designMetric(sim.Sys2().Name),
		w.designMetric(sim.Sys3().Name),
	), nil
}
