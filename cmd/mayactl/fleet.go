package main

import (
	"fmt"
	"io"
	"os"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// fleetOpts carries the resolved -fleet run configuration.
type fleetOpts struct {
	cfg         sim.Config
	kind        defense.Kind
	art         *core.Design
	workload    string
	scale       float64
	tenants     int
	seed        uint64
	ticks       int
	faults      string
	csvPath     string
	flightPath  string
	showMetrics bool
}

// runFleet drives -fleet N: the batched engine steps N co-resident tenants
// — each the bit-exact equivalent of an independent scalar run with seeds
// derived from (seed, tenant index) — and reports a per-tenant summary.
// -csv writes one file with a tenant column; -flight writes every tenant's
// flight trace (Maya designs) separated by `# tenant N` header lines.
func runFleet(stdout io.Writer, o fleetOpts) error {
	spec := fleet.Spec{
		Config:      o.cfg,
		Kind:        o.kind,
		Art:         o.art,
		PeriodTicks: 20,
		Tenants:     o.tenants,
		BaseSeed:    o.seed,
		WarmupTicks: 2000,
		MaxTicks:    o.ticks,
		// The summary, CSV and flight trace are period-level; nothing
		// here reads per-tick power.
		SkipTickTraces: true,
	}
	if o.workload != "idle" {
		name, scale := o.workload, o.scale
		spec.NewWorkload = func() workload.Workload {
			w, err := workload.New(name, scale)
			if err != nil {
				panic(err)
			}
			return w
		}
	}
	maya := o.kind.IsMaya()
	if o.faults != "" {
		plan, err := loadFaultPlan(o.faults)
		if err != nil {
			return err
		}
		spec.Plan = plan
		if maya {
			g := core.DefaultGuard(o.cfg)
			spec.Guard = &g
		}
	}
	if o.flightPath != "" {
		if !maya {
			return fmt.Errorf("-flight needs a Maya design (constant or gs)")
		}
		spec.FlightCapacity = spec.WarmupTicks/20 + spec.MaxTicks/20 + 8
	}

	eng := fleet.New(spec)
	reg := telemetry.NewRegistry()
	metrics := fleet.NewMetrics(reg)
	eng.SetMetrics(metrics)

	results := eng.Run()

	fmt.Fprintf(stdout, "machine:   %s (%d cores, %.1f–%.1f GHz, TDP %.0f W)\n",
		o.cfg.Name, o.cfg.Cores, o.cfg.FminGHz, o.cfg.FmaxGHz, o.cfg.TDP)
	fmt.Fprintf(stdout, "defense:   %s\n", o.kind)
	fmt.Fprintf(stdout, "workload:  %s (scale %.2f) x %d tenants, batched\n", o.workload, o.scale, o.tenants)
	fmt.Fprintf(stdout, "duration:  %.1f s simulated per tenant\n", results[0].Seconds)
	fmt.Fprintf(stdout, "%-7s %10s %8s %10s %8s %10s  %s\n",
		"tenant", "energy_j", "avg_w", "median_w", "iqr_w", "finished", "faults")
	for t, res := range results {
		b := signal.Box(finiteOnly(res.DefenseSamples))
		fin := "no"
		if res.FinishedTick >= 0 {
			fin = fmt.Sprintf("%.1f s", float64(res.FinishedTick)/1000)
		}
		faults := ""
		if o.faults != "" {
			faults = res.Stats.String()
		}
		fmt.Fprintf(stdout, "%-7d %10.1f %8.1f %10.1f %8.1f %10s  %s\n",
			t, res.EnergyJ, res.EnergyJ/res.Seconds, b.Median, b.IQR(), fin, faults)
	}

	if o.csvPath != "" {
		if err := writeFleetCSV(o.csvPath, results); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace:     %s (%d tenants x %d rows)\n",
			o.csvPath, len(results), len(results[0].DefenseSamples))
	}
	if o.flightPath != "" {
		err := writeFlight(o.flightPath, func(w io.Writer) error {
			for t, res := range results {
				if _, err := fmt.Fprintf(w, "# tenant %d\n", t); err != nil {
					return err
				}
				if err := res.Flight.Flush(w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "flight:    %s (%d tenants)\n", o.flightPath, len(results))
	}
	if o.showMetrics {
		fmt.Fprintln(stdout, "\ntelemetry:")
		return reg.WriteProm(stdout)
	}
	return nil
}

// writeFleetCSV writes every tenant's per-period trace into one CSV with a
// leading tenant column, mirroring the scalar writeCSV schema. The row
// encoding lives in fleet.WriteCSV, shared with cmd/mayad's export so the
// two byte-diff cleanly.
func writeFleetCSV(path string, results []fleet.TenantResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fleet.WriteCSV(f, results, nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
