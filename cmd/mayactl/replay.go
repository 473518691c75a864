package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/plot"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

// replayCmd converts workloads to and from demand traces, the bridge
// between real profiling data and the simulator: record any built-in
// workload as a per-millisecond CSV (threads, activity, memfrac), or replay
// such a CSV — hand-written, profiled on real hardware, or previously
// recorded — under any defense design:
//
//	mayactl replay -record blackscholes -seconds 10 -o trace.csv
//	mayactl replay -play trace.csv [-defense gs] [-machine sys1] [-seconds 20]
func replayCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	record := fs.String("record", "", "workload to record as a demand trace")
	play := fs.String("play", "", "demand-trace CSV to replay")
	out := fs.String("o", "trace.csv", "output file for -record")
	seconds := fs.Float64("seconds", 10, "duration to record or replay")
	scale := fs.Float64("scale", 0.2, "workload scale for -record")
	machine := fs.String("machine", "sys1", "machine preset or config JSON path for -play")
	defName := fs.String("defense", "gs", "defense for -play")
	seed := fs.Uint64("seed", 1, "seed")
	loop := fs.Bool("loop", false, "loop the replayed trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record == "" && *play == "" {
		return errors.New("need -record <workload> or -play <trace.csv>")
	}
	ticks, err := runTicks(*seconds)
	if err != nil {
		return err
	}
	if *record != "" {
		return recordDemands(stdout, *record, *out, ticks, *scale, *seed)
	}
	return playDemands(stdout, *play, *machine, *defName, ticks, *seed, *loop)
}

func recordDemands(stdout io.Writer, name, out string, ticks int, scale float64, seed uint64) error {
	w, err := workload.New(name, scale)
	if err != nil {
		return err
	}
	w.Reset(seed)
	// Execute on a baseline machine while recording, so work-based phase
	// structure appears in the trace.
	demands := sim.RecordDemands(sim.Sys1(), w, ticks, seed)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := workload.WriteDemandsCSV(f, demands); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d ticks of %s to %s\n", len(demands), name, out)
	return nil
}

func playDemands(stdout io.Writer, path, machine, defName string, ticks int, seed uint64, loop bool) error {
	cfg, err := machineConfig(machine)
	if err != nil {
		return err
	}
	kind, err := defenseKind(defName)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	demands, err := workload.ReadDemandsCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	art, err := designFor(cfg, kind)
	if err != nil {
		return err
	}

	w := workload.NewReplay(path, demands, loop)
	m := sim.NewMachine(cfg, seed)
	pol := defense.NewDesign(kind, cfg, art, 20).Policy(seed + 2)
	res := sim.Run(m, w, pol, sim.RunSpec{
		ControlPeriodTicks: 20,
		MaxTicks:           ticks,
		WarmupTicks:        2000,
	})
	b := signal.Box(res.DefenseSamples)
	fmt.Fprintf(stdout, "replayed %d ticks (%s) under %v on %s\n", w.Len(), path, kind, cfg.Name)
	fmt.Fprintf(stdout, "power: median %.1f W, IQR %.1f W; energy %.0f J\n", b.Median, b.IQR(), res.EnergyJ)
	fmt.Fprint(stdout, plot.Line(res.DefenseSamples, 100, 8))
	return nil
}
