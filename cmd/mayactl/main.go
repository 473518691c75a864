// Command mayactl runs one of the Table V defense designs on a simulated
// machine while it executes a workload, and reports the power trace, the
// mask targets (for Maya designs), completion time, and energy.
//
// Usage:
//
//	mayactl [-machine sys1|sys2|sys3] [-defense baseline|noisy|random|constant|gs]
//	        [-workload blackscholes|video/tractor|web/google|instr/imul|...]
//	        [-seconds 20] [-scale 0.2] [-seed 1] [-csv out.csv]
//	        [-flight out.jsonl] [-metrics]
//	mayactl -convert src dst
//
// The CSV output has one row per 20 ms control period:
// time_s,power_w,target_w,freq_ghz,idle,balloon.
//
// For the Maya designs, -flight writes the control loop's flight-recorder
// trace — one JSON object per control period with the mask target, measured
// power, tracking error, commanded and applied knob levels, and
// saturation/clip flags — and -metrics dumps the telemetry registry
// (Prometheus text format) after the run. Flight traces contain only
// simulated-domain values, so they are byte-identical for a fixed seed.
//
// -faults injects deterministic substrate faults (sensor glitches, RAPL
// counter wraparound, stuck actuators, missed deadlines) from a canned plan
// name or a plan JSON file, and enables the engine's measurement guard for
// Maya designs. Start from `mayactl -dump-fault-plan kitchen-sink` to write
// your own plan.
//
// -convert translates a trace dataset between the CSV, JSON, and binary
// columnar (MAYT) encodings; the formats are inferred from the two file
// extensions (.csv, .json, .bin/.mayt). CSV inputs need no side-channel
// class table — it is rebuilt from the rows.
//
// -fleet N steps N co-resident tenants through the batched fleet engine
// (internal/fleet) instead of the scalar path: each tenant runs its own
// machine, workload, and defense instance with seeds derived from (seed,
// tenant index), and the output is a per-tenant summary table. -csv then
// carries a leading tenant column, and -flight concatenates every tenant's
// trace with `# tenant N` separators. Per-tenant results are bit-identical
// to N separate scalar runs with the same derived seeds.
//
// -trace records the engine's hierarchical span trace (per-tick phase
// breakdown: mask generation, sensor guard, controller step, actuator
// apply) for Maya designs and writes it as Chrome trace-event JSON (load in
// Perfetto) or JSONL when the file ends in .jsonl; -trace-sample N keeps
// every N-th control tick. -trace-summary aggregates any such trace file —
// from mayactl or cmd/experiments — into a per-phase attribution table.
// -debug-addr serves net/http/pprof and /metrics while the run executes.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/debugsrv"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/plot"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

func machineConfig(name string) (sim.Config, error) {
	if cfg, ok := sim.PresetByName(name); ok {
		return cfg, nil
	}
	// Anything else is treated as a path to a machine-config JSON file
	// (start from `mayactl -dump-machine sys1` and tune toward your
	// hardware's measurements).
	f, err := os.Open(name)
	if err != nil {
		return sim.Config{}, fmt.Errorf("unknown machine %q (%s, or a config JSON path)",
			name, strings.Join(sim.PresetNames, ", "))
	}
	defer f.Close()
	return sim.ReadConfigJSON(f)
}

func defenseKind(name string) (defense.Kind, error) {
	if k, ok := defense.KindByName(name); ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown defense %q (%s)", name, strings.Join(defense.KindNames, ", "))
}

func newWorkload(name string, scale float64) (workload.Workload, error) {
	return workload.New(name, scale)
}

// runTicks converts -seconds into recorded ticks (1 ms each). Like mayad's
// tenant admission, it refuses a run outside 1..1<<20 ticks, the length
// sim.Run and fleet.New fall back to when given none: a shorter -seconds
// would run that fallback instead, and a longer one would size -flight's
// ring past what memory holds.
func runTicks(seconds float64) (int, error) {
	const maxTicks = 1 << 20
	if !(seconds*1000 <= maxTicks) { // negated so NaN fails too
		return 0, fmt.Errorf("seconds %g exceeds the %d-tick limit", seconds, maxTicks)
	}
	ticks := int(seconds * 1000)
	if ticks <= 0 {
		return 0, fmt.Errorf("seconds %g is shorter than one tick", seconds)
	}
	return ticks, nil
}

func main() {
	machine := flag.String("machine", "sys1", "machine preset")
	defName := flag.String("defense", "gs", "defense design")
	wlName := flag.String("workload", "blackscholes", "workload to protect")
	seconds := flag.Float64("seconds", 20, "recorded duration")
	scale := flag.Float64("scale", 0.2, "workload scale factor")
	seed := flag.Uint64("seed", 1, "run seed (the defense's secret)")
	csvPath := flag.String("csv", "", "write the per-period trace to this CSV file")
	flightPath := flag.String("flight", "", "write the flight-recorder trace (Maya designs) to this JSONL file")
	showMetrics := flag.Bool("metrics", false, "dump the telemetry registry after the run")
	stopOnFinish := flag.Bool("stop-on-finish", false, "end when the workload completes")
	showPlot := flag.Bool("plot", false, "render the trace (and mask overlay) as ASCII")
	dumpMachine := flag.String("dump-machine", "", "print a machine preset as JSON and exit")
	faultsFlag := flag.String("faults", "", "inject faults from a canned plan ("+strings.Join(fault.PlanNames(), ", ")+") or a plan JSON path")
	dumpFaultPlan := flag.String("dump-fault-plan", "", "print a canned fault plan as JSON and exit")
	list := flag.Bool("list", false, "list the built-in workloads and exit")
	convert := flag.Bool("convert", false, "convert a trace dataset between formats: mayactl -convert src dst")
	tracePath := flag.String("trace", "", "write the engine's span trace (Maya designs) to this file (.json Chrome trace-event, .jsonl JSONL)")
	traceSample := flag.Int("trace-sample", 1, "trace every N-th control tick's phase breakdown (1 = all)")
	traceSummary := flag.String("trace-summary", "", "aggregate a trace file into a per-phase attribution table and exit")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this address during the run")
	fleetN := flag.Int("fleet", 0, "run N independent tenants through the batched fleet engine (0 = scalar single-tenant path)")
	flag.Parse()

	if *traceSummary != "" {
		if err := summarizeTrace(os.Stdout, *traceSummary); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *convert {
		if flag.NArg() != 2 {
			log.Fatal("usage: mayactl -convert src dst (formats by extension: .csv, .json, .bin, .mayt)")
		}
		if err := convertDataset(flag.Arg(0), flag.Arg(1)); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list {
		fmt.Printf("%-22s %-14s %8s  %s\n", "workload", "suite", "~runtime", "description")
		for _, e := range workload.Catalog() {
			rt := "∞"
			if e.BaselineSeconds > 0 {
				rt = fmt.Sprintf("%.0f s", e.BaselineSeconds)
			}
			fmt.Printf("%-22s %-14s %8s  %s\n", e.Name, e.Suite, rt, e.Description)
		}
		return
	}

	if *dumpMachine != "" {
		cfg, err := machineConfig(*dumpMachine)
		if err != nil {
			log.Fatal(err)
		}
		if err := cfg.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *dumpFaultPlan != "" {
		plan, ok := fault.PlanByName(*dumpFaultPlan)
		if !ok {
			log.Fatalf("unknown fault plan %q (have %s)", *dumpFaultPlan, strings.Join(fault.PlanNames(), ", "))
		}
		if err := plan.WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg, err := machineConfig(*machine)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := defenseKind(*defName)
	if err != nil {
		log.Fatal(err)
	}
	w, err := newWorkload(*wlName, *scale)
	if err != nil {
		log.Fatal(err)
	}
	ticks, err := runTicks(*seconds)
	if err != nil {
		log.Fatal(err)
	}

	var art *core.Design
	if kind == defense.MayaConstant || kind == defense.MayaGS {
		log.Printf("designing Maya controller for %s (system identification + synthesis)...", cfg.Name)
		art, err = core.DesignFor(cfg, core.DefaultDesignOptions())
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("controller: dim=%d, band=[%.1f, %.1f] W, closed-loop ρ=%.3f",
			art.Controller.Dim(), art.Band.Min, art.Band.Max, art.Report.ClosedLoopRadius)
	}

	if *fleetN > 0 {
		if err := runFleet(fleetOpts{
			cfg: cfg, kind: kind, art: art,
			workload: *wlName, scale: *scale,
			tenants: *fleetN, seed: *seed, ticks: ticks,
			faults: *faultsFlag, csvPath: *csvPath, flightPath: *flightPath,
			showMetrics: *showMetrics,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	m := sim.NewMachine(cfg, *seed)
	w.Reset(*seed + 1)
	pol := defense.NewDesign(kind, cfg, art, 20).Policy(*seed + 2)
	eng, _ := pol.(*core.Engine)

	reg := telemetry.NewRegistry()
	debugsrv.RegisterBuildInfo(reg)
	if *debugAddr != "" {
		srv, err := debugsrv.Serve(context.Background(), *debugAddr, reg)
		if err != nil {
			log.Fatalf("debug server: %v", err)
		}
		defer srv.Close()
		log.Printf("debug server on http://%s (pprof at /debug/pprof/, metrics at /metrics)", srv.Addr())
	}

	var tr *telemetry.Tracer
	if *tracePath != "" {
		if eng == nil {
			log.Fatalf("-trace needs a Maya design (constant or gs), not %q", *defName)
		}
		tr = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
		tr.SetTickSample(*traceSample)
		eng.SetTrace(tr, telemetry.NewRootContext("mayactl", *seed))
	}

	var em *core.EngineMetrics
	var flight *telemetry.FlightRecorder
	if eng != nil {
		em = core.NewEngineMetrics(reg)
		eng.SetMetrics(em)
		if *flightPath != "" {
			// Size the ring to the whole run (warmup included) so the spill
			// at the end is the complete trace.
			steps := 2000/20 + ticks/20 + 8
			flight = telemetry.NewFlightRecorder(steps)
			eng.SetFlight(flight)
		}
	} else if *flightPath != "" {
		log.Fatalf("-flight needs a Maya design (constant or gs), not %q", *defName)
	}

	spec := sim.RunSpec{
		ControlPeriodTicks: 20,
		MaxTicks:           ticks,
		WarmupTicks:        2000,
		StopOnFinish:       *stopOnFinish,
	}

	var inj *fault.Injector
	if *faultsFlag != "" {
		plan, err := loadFaultPlan(*faultsFlag)
		if err != nil {
			log.Fatal(err)
		}
		inj, err = fault.New(plan, *seed+3)
		if err != nil {
			log.Fatal(err)
		}
		inj.SetMetrics(fault.NewMetrics(reg))
		inj.Attach(m)
		spec.DefenseSensor = inj.Sensor(sim.NewRAPLSensor(m))
		pol = inj.Policy(pol)
		if eng != nil {
			guard := core.DefaultGuard(cfg)
			eng.SetGuard(&guard)
		}
	}

	res := sim.Run(m, w, pol, spec)

	var targets []float64
	if eng != nil {
		t := eng.MaskTargets()
		if res.FirstStep < len(t) {
			targets = t[res.FirstStep:]
		}
	}

	fmt.Printf("machine:   %s (%d cores, %.1f–%.1f GHz, TDP %.0f W)\n",
		cfg.Name, cfg.Cores, cfg.FminGHz, cfg.FmaxGHz, cfg.TDP)
	fmt.Printf("defense:   %s\n", kind)
	fmt.Printf("workload:  %s (scale %.2f)\n", *wlName, *scale)
	fmt.Printf("duration:  %.1f s simulated\n", res.Seconds)
	if res.FinishedTick >= 0 {
		fmt.Printf("finished:  %.1f s\n", float64(res.FinishedTick)/1000)
	} else {
		fmt.Printf("finished:  no (still running at cutoff)\n")
	}
	fmt.Printf("energy:    %.1f J (avg %.1f W)\n", res.EnergyJ, res.EnergyJ/res.Seconds)
	samples := res.DefenseSamples
	if inj != nil {
		// Raw faulty readings can be NaN/Inf; keep the summary stats finite.
		samples = finiteOnly(samples)
	}
	if len(targets) > 0 {
		n := len(samples)
		if len(targets) < n {
			n = len(targets)
		}
		fmt.Printf("tracking:  MAD %.2f W over %d periods\n",
			signal.MeanAbsDeviation(samples[:n], targets[:n]), n)
	}
	b := signal.Box(samples)
	fmt.Printf("power:     median %.1f W, IQR %.1f W, range [%.1f, %.1f] W\n",
		b.Median, b.IQR(), b.Min, b.Max)
	if inj != nil {
		fmt.Printf("faults:    plan %s — injected %s\n", inj.Plan().Name, inj.Stats())
		if em != nil {
			fmt.Printf("guard:     %d rejects, %d hold-exhausted, %d state re-inits\n",
				em.GlitchRejects.Value(), em.HoldExhausted.Value(), em.StateReinits.Value())
		}
	}

	if *showPlot {
		fmt.Println("\npower trace ('#'):")
		if len(targets) > 0 {
			fmt.Println("overlay with mask target ('1' power only, '2' target only, '#' both):")
			fmt.Print(plot.Overlay(samples, targets, 100, 10))
		} else {
			fmt.Print(plot.Line(samples, 100, 10))
		}
		fmt.Println("\npower distribution:")
		fmt.Print(plot.Histogram(samples, 12, 50))
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, res, targets); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace:     %s (%d rows)\n", *csvPath, len(res.DefenseSamples))
	}

	if flight != nil {
		f, err := os.Create(*flightPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := flight.Flush(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flight:    %s (%d records, %d dropped)\n", *flightPath, flight.Total(), flight.Dropped())
	}

	if tr != nil {
		if err := writeTrace(*tracePath, tr); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("spans:     %s (%d spans, %d dropped)\n", *tracePath, tr.Len(), tr.Dropped())
	}

	if *showMetrics {
		fmt.Println("\ntelemetry:")
		if err := reg.WriteProm(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// summarizeTrace renders the per-phase attribution table for a trace file
// (Chrome trace-event JSON, bare event array, or JSONL — auto-detected).
func summarizeTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ParseTraceEvents(f)
	if err != nil {
		return err
	}
	return telemetry.WriteSummaryTable(w, events)
}

// writeTrace exports the tracer's retained spans; the format follows the
// file extension (.jsonl JSONL, anything else Chrome trace-event JSON).
func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := tr.Snapshot()
	if strings.HasSuffix(path, ".jsonl") {
		err = telemetry.WriteTraceJSONL(f, events)
	} else {
		err = telemetry.WriteChromeTrace(f, events)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// convertDataset re-encodes a dataset file; formats come from the
// extensions.
func convertDataset(src, dst string) error {
	d, err := trace.ReadDatasetFile(src, nil)
	if err != nil {
		return err
	}
	if err := trace.WriteDatasetFile(dst, d); err != nil {
		return err
	}
	samples := 0
	for _, tr := range d.Traces {
		samples += len(tr.Samples)
	}
	fmt.Printf("converted %s -> %s (%d classes, %d traces, %d samples)\n",
		src, dst, d.NumClasses(), len(d.Traces), samples)
	return nil
}

// finiteOnly drops NaN/±Inf samples (injected sensor faults) so the
// printed summary statistics stay meaningful.
func finiteOnly(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, v := range xs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

// loadFaultPlan resolves -faults: a canned plan name first, otherwise a
// path to a plan JSON file.
func loadFaultPlan(arg string) (fault.Plan, error) {
	if plan, ok := fault.PlanByName(arg); ok {
		return plan, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return fault.Plan{}, fmt.Errorf("unknown fault plan %q (have %s, or pass a plan JSON path)",
			arg, strings.Join(fault.PlanNames(), ", "))
	}
	defer f.Close()
	return fault.ReadPlanJSON(f)
}

func writeCSV(path string, res sim.RunResult, targets []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	defer cw.Flush()
	if err := cw.Write([]string{"time_s", "power_w", "target_w", "freq_ghz", "idle", "balloon"}); err != nil {
		return err
	}
	for i, p := range res.DefenseSamples {
		row := []string{
			strconv.FormatFloat(float64(i)*0.02, 'f', 2, 64),
			strconv.FormatFloat(p, 'f', 3, 64),
			"",
			"", "", "",
		}
		if i < len(targets) {
			row[2] = strconv.FormatFloat(targets[i], 'f', 3, 64)
		}
		if i < len(res.InputTrace) {
			in := res.InputTrace[i]
			row[3] = strconv.FormatFloat(in.FreqGHz, 'f', 1, 64)
			row[4] = strconv.FormatFloat(in.Idle, 'f', 2, 64)
			row[5] = strconv.FormatFloat(in.Balloon, 'f', 1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}
