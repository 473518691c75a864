package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"github.com/maya-defense/maya/internal/attack"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/experiments"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/telemetry"
)

// attackCmd runs one of the paper's ML side-channel attacks end to end
// (§VI-A, Figs 6, 8, 9): collect power traces under a chosen defense,
// train the classifier on 60% of them, and print its result on the
// held-out rest. The machine, classes, features and tap come from the
// figure's experiments.AttackSetup.
//
// -parallel bounds the workers that collect traces and that train the
// cross-validation folds; the MLP's two training restarts always run side
// by side. Results are identical for any worker count. With -folds K (at
// least 2) the MLP is additionally k-fold cross-validated and the per-fold
// accuracies reported.
// -debug-addr serves pprof and /metrics (collection counters, pool depth)
// while the attack runs — collection at paper scale takes minutes, and the
// endpoint is how you watch it.
func attackCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	experiment := fs.String("experiment", "apps", "apps (Fig 6), videos (Fig 8), pages (Fig 9)")
	defName := fs.String("defense", "gs", "defense: baseline, noisy, random, constant, gs")
	runs := fs.Int("runs", 60, "traces captured per class")
	seconds := fs.Float64("seconds", 24, "trace duration")
	scale := fs.Float64("scale", 0.15, "workload scale factor")
	seed := fs.Uint64("seed", 1, "base seed")
	epochs := fs.Int("epochs", 60, "MLP training epochs")
	attacker := fs.String("attacker", "mlp", "classifier: mlp, template, knn")
	parallel := fs.Int("parallel", 0, "worker count for collection and the cross-validation folds (0 = GOMAXPROCS)")
	folds := fs.Int("folds", 0, "additionally k-fold cross-validate the MLP, k >= 2 (0 = off)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and /metrics on this address during the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ticks, err := runTicks(*seconds)
	if err != nil {
		return err
	}
	// defense.Collect would clamp -runs to 1, attack.Run would train the
	// default epochs for a 0 and Train's own default for a negative, and
	// any -folds under 2 would skip cross-validation without a word.
	if *runs < 1 {
		return fmt.Errorf("runs %d: want at least 1 trace per class", *runs)
	}
	if *epochs < 1 {
		return fmt.Errorf("epochs %d: want at least 1", *epochs)
	}
	if *folds != 0 && *folds < 2 {
		return fmt.Errorf("folds %d: want 0 (off) or at least 2", *folds)
	}
	kind, err := defenseKind(*defName)
	if err != nil {
		return err
	}
	s, err := experiments.NewAttackSetup(*experiment, *scale, ticks)
	if err != nil {
		return err
	}
	if *attacker != "mlp" && *attacker != "template" && *attacker != "knn" {
		return fmt.Errorf("unknown attacker %q (mlp, template, knn)", *attacker)
	}
	s.Spec.Train.Epochs = *epochs

	reg := telemetry.NewRegistry()
	stop, err := serveDebug(*debugAddr, reg)
	if err != nil {
		return err
	}
	defer stop()
	art, err := designFor(s.Config, kind)
	if err != nil {
		return err
	}

	log.Printf("collecting %d traces × %d classes under %v on %s...",
		*runs, len(s.Classes), kind, s.Config.Name)
	start := time.Now() //maya:wallclock collection timing for the progress log only
	ds, _ := defense.Collect(context.Background(), defense.CollectSpec{
		Cfg:               s.Config,
		Design:            defense.NewDesign(kind, s.Config, art, 20),
		Classes:           s.Classes,
		RunsPerClass:      *runs,
		MaxTicks:          ticks,
		WarmupTicks:       2000,
		AttackPeriodTicks: s.PeriodTicks,
		Outlet:            s.Outlet,
		Seed:              *seed,
		Workers:           *parallel,
		Metrics:           defense.NewCollectMetrics(reg),
		PoolMetrics:       runner.NewMetrics(reg),
	})
	log.Printf("collected in %.1fs; training the %s attacker...", time.Since(start).Seconds(), *attacker) //maya:wallclock progress log

	goal := fmt.Sprintf("%s (%s)", s.Goal, s.Artifact)
	chance := 100 / float64(len(s.Classes))
	switch *attacker {
	case "mlp":
		res, err := attack.Run(ds, s.Spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "attack:   %s (MLP)\n", goal)
		fmt.Fprintf(stdout, "defense:  %v\n", kind)
		fmt.Fprintf(stdout, "examples: %d (input dim %d)\n", res.Examples, res.InputDim)
		fmt.Fprintf(stdout, "chance:   %.1f%%\n\n", 100*res.Chance)
		fmt.Fprint(stdout, res.Confusion.String())
		if *folds != 0 {
			log.Printf("cross-validating across %d folds...", *folds)
			cv, err := attack.CrossValidate(ds, s.Spec, *folds, *parallel)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n%d-fold CV: %.1f%% ± %.1f%% (folds:", *folds, 100*cv.MeanAccuracy, 100*cv.StdAccuracy)
			for _, a := range cv.FoldAccuracy {
				fmt.Fprintf(stdout, " %.1f%%", 100*a)
			}
			fmt.Fprintf(stdout, ")\n")
		}
	case "template":
		acc, err := attack.RunTemplate(ds, s.Spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "attack:   %s (templates)\n", goal)
		fmt.Fprintf(stdout, "defense:  %v\n", kind)
		fmt.Fprintf(stdout, "accuracy: %.1f%% (chance %.1f%%)\n", 100*acc, chance)
	case "knn":
		acc, err := attack.RunKNN(ds, s.Spec, 5)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "attack:   %s (5-NN)\n", goal)
		fmt.Fprintf(stdout, "defense:  %v\n", kind)
		fmt.Fprintf(stdout, "accuracy: %.1f%% (chance %.1f%%)\n", 100*acc, chance)
	}
	return nil
}
