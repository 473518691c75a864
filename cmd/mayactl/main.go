// Command mayactl is the command line for single runs of the Maya
// pipeline: design the controller, generate the mask, run a defense, and
// attack the defended traces.
//
// Usage:
//
//	mayactl [flags]
//	mayactl <command> [args]
//
// The commands are attack (Figs 6/8/9), sysid (§V-A), mask (Fig 4,
// Table II), replay, convert, trace-summary, list, dump-machine and
// dump-fault-plan; `mayactl -h` describes each and lists the run flags.
//
// With no command, mayactl runs one of the Table V defense designs on a
// simulated machine while it executes a workload, and reports the power
// trace, the mask targets (for Maya designs), completion time, and energy:
//
//	mayactl [-machine sys1|sys2|sys3] [-defense baseline|noisy|random|constant|gs]
//	        [-workload blackscholes|video/tractor|web/google|instr/imul|...]
//	        [-seconds 20] [-scale 0.2] [-seed 1] [-csv out.csv]
//	        [-flight out.jsonl] [-metrics]
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
// Maya designs. Start from `mayactl dump-fault-plan kitchen-sink` to write
// your own plan.
//
// -fleet N steps N co-resident tenants through the batched fleet engine
// (internal/fleet), on one goroutine, instead of the scalar path: each
// tenant runs its own machine, workload, and defense instance with seeds
// derived from (seed, tenant index), and the output is a per-tenant
// summary table. -csv then carries a leading tenant column, and -flight
// concatenates every tenant's trace with `# tenant N` separators.
// Per-tenant results are bit-identical to N separate scalar runs with the
// same derived seeds. -trace, -trace-sample, -plot, -stop-on-finish and
// -debug-addr serve the scalar path only, and -fleet refuses them.
//
// -trace records the engine's hierarchical span trace (per-tick phase
// breakdown: mask generation, sensor guard, controller step, actuator
// apply) for Maya designs and writes it as Chrome trace-event JSON (load in
// Perfetto) or JSONL when the file ends in .jsonl; -trace-sample N keeps
// every N-th control tick. `mayactl trace-summary` aggregates any such
// trace file — from mayactl or cmd/experiments — into a per-phase
// attribution table. -debug-addr serves net/http/pprof and /metrics while
// the run executes.
//
// convert infers the formats from the two file extensions (.csv, .json,
// .bin/.mayt). CSV inputs need no side-channel class table — it is rebuilt
// from the rows.
package main

import (
	"bufio"
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

// A command is one of mayactl's subcommands. A command with nargs >= 0
// takes exactly that many positional arguments, named by args, and no
// flags; the others parse their own flags.
type command struct {
	name, args, doc string
	nargs           int
	run             func(args []string, stdout io.Writer) error
}

var commands = []command{
	{"attack", "", "the Fig 6/8/9 attack on a defense's traces", -1, attackCmd},
	{"sysid", "", "the §V-A design pipeline step by step", -1, sysidCmd},
	{"mask", "", "a mask target sequence or its spectrum (Fig 4, Table II)", -1, maskCmd},
	{"replay", "", "record a workload as a demand-trace CSV, or replay one", -1, replayCmd},
	{"convert", "src dst", "convert a trace dataset (formats by extension: .csv, .json, .bin, .mayt)", 2,
		func(a []string, w io.Writer) error { return convertDataset(w, a[0], a[1]) }},
	{"trace-summary", "trace-file", "aggregate a span trace into a per-phase table", 1,
		func(a []string, w io.Writer) error { return summarizeTrace(w, a[0]) }},
	{"list", "", "list the built-in workloads", 0, listWorkloads},
	{"dump-machine", "preset|config.json", "print a machine config as JSON", 1, dumpMachine},
	{"dump-fault-plan", "plan", "print a canned fault plan as JSON", 1, dumpFaultPlan},
}

func main() {
	if err := dispatch(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// dispatch runs the command args name, or the defense run when args start
// with a flag or are empty.
func dispatch(args []string, stdout io.Writer) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runDefense(args, stdout)
	}
	for _, c := range commands {
		if c.name != args[0] {
			continue
		}
		if c.nargs >= 0 && len(args)-1 != c.nargs {
			return fmt.Errorf("usage: mayactl %s %s", c.name, c.args)
		}
		return c.run(args[1:], stdout)
	}
	return fmt.Errorf("unknown command %q\n%s", args[0], usage())
}

// usage lists the run mode and the commands.
func usage() string {
	var b strings.Builder
	b.WriteString("usage: mayactl [run flags]         run a defense\n")
	b.WriteString("       mayactl <command> [args]    (mayactl <command> -h lists its flags)\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-16s %s\n", c.name, c.doc)
	}
	return b.String()
}

func machineConfig(name string) (sim.Config, error) {
	if cfg, ok := sim.PresetByName(name); ok {
		return cfg, nil
	}
	// Anything else is treated as a path to a machine-config JSON file
	// (start from `mayactl dump-machine sys1` and tune toward your
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

// designFor identifies cfg's plant and synthesizes its Maya controller
// (§V-A) when kind is a Maya design; the other designs need none, and get
// nil.
func designFor(cfg sim.Config, kind defense.Kind) (*core.Design, error) {
	if !kind.IsMaya() {
		return nil, nil
	}
	log.Printf("designing Maya controller for %s (system identification + synthesis)...", cfg.Name)
	art, err := core.DesignFor(cfg, core.DefaultDesignOptions())
	if err != nil {
		return nil, err
	}
	log.Printf("controller: dim=%d, band=[%.1f, %.1f] W, closed-loop ρ=%.3f",
		art.Controller.Dim(), art.Band.Min, art.Band.Max, art.Report.ClosedLoopRadius)
	return art, nil
}

// serveDebug registers maya_build_info on reg and, when addr is set,
// serves net/http/pprof and reg's /metrics on it until stop is called.
func serveDebug(addr string, reg *telemetry.Registry) (stop func(), err error) {
	debugsrv.RegisterBuildInfo(reg)
	if addr == "" {
		return func() {}, nil
	}
	srv, err := debugsrv.Serve(context.Background(), addr, reg)
	if err != nil {
		return nil, fmt.Errorf("debug server: %w", err)
	}
	log.Printf("debug server on http://%s (pprof at /debug/pprof/, metrics at /metrics)", srv.Addr())
	return func() { srv.Close() }, nil
}

// checkFleet validates -fleet against the flags set on the command line
// (by name): a negative tenant count is an error, and so is a fleet run
// with any flag that only the scalar path reads.
func checkFleet(tenants int, set map[string]bool) error {
	if tenants < 0 {
		return fmt.Errorf("-fleet %d: want a tenant count, or 0 for the scalar path", tenants)
	}
	if tenants == 0 {
		return nil
	}
	for _, name := range []string{"trace", "trace-sample", "plot", "stop-on-finish", "debug-addr"} {
		if set[name] {
			return fmt.Errorf("-%s does not apply to -fleet runs", name)
		}
	}
	return nil
}

// runTicks converts -seconds into recorded ticks (1 ms each). Like mayad's
// tenant admission, it refuses a run outside 1..1<<20 ticks, the length
// sim.Run and fleet.New fall back to when given none: a shorter -seconds
// would run that fallback instead, and a longer one would size -flight's
// ring, a recording or a collection past what memory holds.
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

// runDefense is the run mode: one defense design protecting one workload,
// on the scalar path or, with -fleet N, for N tenants.
func runDefense(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mayactl", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage(), "run flags:\n")
		fs.PrintDefaults()
	}
	machine := fs.String("machine", "sys1", "machine preset")
	defName := fs.String("defense", "gs", "defense design")
	wlName := fs.String("workload", "blackscholes", "workload to protect")
	seconds := fs.Float64("seconds", 20, "recorded duration")
	scale := fs.Float64("scale", 0.2, "workload scale factor")
	seed := fs.Uint64("seed", 1, "run seed (the defense's secret)")
	csvPath := fs.String("csv", "", "write the per-period trace to this CSV file")
	flightPath := fs.String("flight", "", "write the flight-recorder trace (Maya designs) to this JSONL file")
	showMetrics := fs.Bool("metrics", false, "dump the telemetry registry after the run")
	stopOnFinish := fs.Bool("stop-on-finish", false, "end when the workload completes")
	showPlot := fs.Bool("plot", false, "render the trace (and mask overlay) as ASCII")
	faultsFlag := fs.String("faults", "", "inject faults from a canned plan ("+strings.Join(fault.PlanNames(), ", ")+") or a plan JSON path")
	tracePath := fs.String("trace", "", "write the engine's span trace (Maya designs) to this file (.json Chrome trace-event, .jsonl JSONL)")
	traceSample := fs.Int("trace-sample", 1, "trace every N-th control tick's phase breakdown (1 = all)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and /metrics on this address during the run")
	fleetN := fs.Int("fleet", 0, "run N independent tenants through the batched fleet engine (0 = scalar single-tenant path)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q\n%s", fs.Arg(0), usage())
	}

	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFleet(*fleetN, set); err != nil {
		return err
	}
	cfg, err := machineConfig(*machine)
	if err != nil {
		return err
	}
	kind, err := defenseKind(*defName)
	if err != nil {
		return err
	}
	w, err := workload.New(*wlName, *scale)
	if err != nil {
		return err
	}
	ticks, err := runTicks(*seconds)
	if err != nil {
		return err
	}
	art, err := designFor(cfg, kind)
	if err != nil {
		return err
	}

	if *fleetN > 0 {
		return runFleet(stdout, fleetOpts{
			cfg: cfg, kind: kind, art: art,
			workload: *wlName, scale: *scale,
			tenants: *fleetN, seed: *seed, ticks: ticks,
			faults: *faultsFlag, csvPath: *csvPath, flightPath: *flightPath,
			showMetrics: *showMetrics,
		})
	}

	m := sim.NewMachine(cfg, *seed)
	w.Reset(*seed + 1)
	pol := defense.NewDesign(kind, cfg, art, 20).Policy(*seed + 2)
	eng, _ := pol.(*core.Engine)

	reg := telemetry.NewRegistry()
	stop, err := serveDebug(*debugAddr, reg)
	if err != nil {
		return err
	}
	defer stop()

	var tr *telemetry.Tracer
	if *tracePath != "" {
		if eng == nil {
			return fmt.Errorf("-trace needs a Maya design (constant or gs), not %q", *defName)
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
		return fmt.Errorf("-flight needs a Maya design (constant or gs), not %q", *defName)
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
			return err
		}
		inj, err = fault.New(plan, *seed+3)
		if err != nil {
			return err
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

	fmt.Fprintf(stdout, "machine:   %s (%d cores, %.1f–%.1f GHz, TDP %.0f W)\n",
		cfg.Name, cfg.Cores, cfg.FminGHz, cfg.FmaxGHz, cfg.TDP)
	fmt.Fprintf(stdout, "defense:   %s\n", kind)
	fmt.Fprintf(stdout, "workload:  %s (scale %.2f)\n", *wlName, *scale)
	fmt.Fprintf(stdout, "duration:  %.1f s simulated\n", res.Seconds)
	if res.FinishedTick >= 0 {
		fmt.Fprintf(stdout, "finished:  %.1f s\n", float64(res.FinishedTick)/1000)
	} else {
		fmt.Fprintf(stdout, "finished:  no (still running at cutoff)\n")
	}
	fmt.Fprintf(stdout, "energy:    %.1f J (avg %.1f W)\n", res.EnergyJ, res.EnergyJ/res.Seconds)
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
		fmt.Fprintf(stdout, "tracking:  MAD %.2f W over %d periods\n",
			signal.MeanAbsDeviation(samples[:n], targets[:n]), n)
	}
	b := signal.Box(samples)
	fmt.Fprintf(stdout, "power:     median %.1f W, IQR %.1f W, range [%.1f, %.1f] W\n",
		b.Median, b.IQR(), b.Min, b.Max)
	if inj != nil {
		fmt.Fprintf(stdout, "faults:    plan %s — injected %s\n", inj.Plan().Name, inj.Stats())
		if em != nil {
			fmt.Fprintf(stdout, "guard:     %d rejects, %d hold-exhausted, %d state re-inits\n",
				em.GlitchRejects.Value(), em.HoldExhausted.Value(), em.StateReinits.Value())
		}
	}

	if *showPlot {
		fmt.Fprintln(stdout, "\npower trace ('#'):")
		if len(targets) > 0 {
			fmt.Fprintln(stdout, "overlay with mask target ('1' power only, '2' target only, '#' both):")
			fmt.Fprint(stdout, plot.Overlay(samples, targets, 100, 10))
		} else {
			fmt.Fprint(stdout, plot.Line(samples, 100, 10))
		}
		fmt.Fprintln(stdout, "\npower distribution:")
		fmt.Fprint(stdout, plot.Histogram(samples, 12, 50))
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, res, targets); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace:     %s (%d rows)\n", *csvPath, len(res.DefenseSamples))
	}

	if flight != nil {
		if err := writeFlight(*flightPath, flight.Flush); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "flight:    %s (%d records, %d dropped)\n", *flightPath, flight.Total(), flight.Dropped())
	}

	if tr != nil {
		if err := writeTrace(*tracePath, tr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans:     %s (%d spans, %d dropped)\n", *tracePath, tr.Len(), tr.Dropped())
	}

	if *showMetrics {
		fmt.Fprintln(stdout, "\ntelemetry:")
		return reg.WriteProm(stdout)
	}
	return nil
}

// listWorkloads prints the workload catalog.
func listWorkloads(_ []string, stdout io.Writer) error {
	fmt.Fprintf(stdout, "%-22s %-14s %8s  %s\n", "workload", "suite", "~runtime", "description")
	for _, e := range workload.Catalog() {
		rt := "∞"
		if e.BaselineSeconds > 0 {
			rt = fmt.Sprintf("%.0f s", e.BaselineSeconds)
		}
		fmt.Fprintf(stdout, "%-22s %-14s %8s  %s\n", e.Name, e.Suite, rt, e.Description)
	}
	return nil
}

func dumpMachine(args []string, stdout io.Writer) error {
	cfg, err := machineConfig(args[0])
	if err != nil {
		return err
	}
	return cfg.WriteJSON(stdout)
}

func dumpFaultPlan(args []string, stdout io.Writer) error {
	plan, ok := fault.PlanByName(args[0])
	if !ok {
		return fmt.Errorf("unknown fault plan %q (have %s)", args[0], strings.Join(fault.PlanNames(), ", "))
	}
	return plan.WriteJSON(stdout)
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

// writeFlight creates path and has body write flight JSONL into it
// through a buffer: a recorder's Flush encodes one record per write, which
// straight to the file is one system call per control period.
func writeFlight(path string, body func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = body(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
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
func convertDataset(stdout io.Writer, src, dst string) error {
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
	fmt.Fprintf(stdout, "converted %s -> %s (%d classes, %d traces, %d samples)\n",
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
	defer f.Close() // for the error returns; the last one checks Close
	cw := csv.NewWriter(f)
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
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return f.Close()
}
