// Command replay converts workloads to and from demand traces, the bridge
// between real profiling data and the simulator: record any built-in
// workload as a per-millisecond CSV (threads, activity, memfrac), or replay
// such a CSV — hand-written, profiled on real hardware, or previously
// recorded — under any defense design.
//
// Usage:
//
//	replay -record blackscholes -seconds 10 -o trace.csv
//	replay -play trace.csv [-defense gs] [-machine sys1] [-seconds 20]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/plot"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/workload"
)

func main() {
	record := flag.String("record", "", "workload to record as a demand trace")
	play := flag.String("play", "", "demand-trace CSV to replay")
	out := flag.String("o", "trace.csv", "output file for -record")
	seconds := flag.Float64("seconds", 10, "duration to record or replay")
	scale := flag.Float64("scale", 0.2, "workload scale for -record")
	machine := flag.String("machine", "sys1", "machine preset for -play")
	defName := flag.String("defense", "gs", "defense for -play")
	seed := flag.Uint64("seed", 1, "seed")
	loop := flag.Bool("loop", false, "loop the replayed trace")
	flag.Parse()

	var err error
	switch {
	case *record != "":
		err = doRecord(*record, *out, *seconds, *scale, *seed)
	case *play != "":
		err = doPlay(*play, *machine, *defName, *seconds, *seed, *loop)
	default:
		log.Fatal("need -record <workload> or -play <trace.csv>")
	}
	if err != nil {
		log.Fatal(err)
	}
}

func doRecord(name, out string, seconds, scale float64, seed uint64) error {
	w, err := workload.New(name, scale)
	if err != nil {
		return err
	}
	w.Reset(seed)
	// Execute on a baseline machine while recording, so work-based phase
	// structure appears in the trace.
	demands := sim.RecordDemands(sim.Sys1(), w, int(seconds*1000), seed)
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
	fmt.Printf("recorded %d ticks of %s to %s\n", len(demands), name, out)
	return nil
}

func doPlay(path, machine, defName string, seconds float64, seed uint64, loop bool) error {
	cfg, ok := sim.PresetByName(machine)
	if !ok {
		return fmt.Errorf("unknown machine %q (%s)", machine, strings.Join(sim.PresetNames, ", "))
	}
	kind, ok := defense.KindByName(defName)
	if !ok {
		return fmt.Errorf("unknown defense %q (%s)", defName, strings.Join(defense.KindNames, ", "))
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

	var art *core.Design
	if kind.IsMaya() {
		log.Printf("designing Maya controller for %s...", cfg.Name)
		art, err = core.DesignFor(cfg, core.DefaultDesignOptions())
		if err != nil {
			return err
		}
	}
	w := workload.NewReplay(path, demands, loop)
	m := sim.NewMachine(cfg, seed)
	pol := defense.NewDesign(kind, cfg, art, 20).Policy(seed + 2)
	res := sim.Run(m, w, pol, sim.RunSpec{
		ControlPeriodTicks: 20,
		MaxTicks:           int(seconds * 1000),
		WarmupTicks:        2000,
	})
	b := signal.Box(res.DefenseSamples)
	fmt.Printf("replayed %d ticks (%s) under %v on %s\n", w.Len(), path, kind, cfg.Name)
	fmt.Printf("power: median %.1f W, IQR %.1f W; energy %.0f J\n", b.Median, b.IQR(), res.EnergyJ)
	fmt.Print(plot.Line(res.DefenseSamples, 100, 8))
	return nil
}
