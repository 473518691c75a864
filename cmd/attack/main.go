// Command attack runs one of the paper's ML-based side-channel attacks
// end-to-end: collect power traces under a chosen defense, train the MLP on
// 60% of them, and print the confusion matrix for the held-out test set
// (§VI-A / Figs 6, 8, 9).
//
// Usage:
//
//	attack [-experiment apps|videos|pages] [-defense random|constant|gs]
//	       [-runs 60] [-seconds 24] [-scale 0.15] [-seed 1]
//	       [-parallel N] [-folds K]
//
// Collection and training fan out across -parallel workers; results are
// identical for any worker count. With -folds K the MLP is additionally
// k-fold cross-validated and the per-fold accuracies reported.
//
// -debug-addr serves net/http/pprof and a Prometheus-style /metrics
// endpoint (collection counters, pool depth, maya_build_info) while the
// attack runs — collection at paper scale takes minutes, and the endpoint
// is how you watch it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/maya-defense/maya/internal/attack"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/debugsrv"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
)

func main() {
	experiment := flag.String("experiment", "apps", "apps (Fig 6), videos (Fig 8), pages (Fig 9)")
	defName := flag.String("defense", "gs", "defense: baseline, noisy, random, constant, gs")
	runs := flag.Int("runs", 60, "traces captured per class")
	seconds := flag.Float64("seconds", 24, "trace duration")
	scale := flag.Float64("scale", 0.15, "workload scale factor")
	seed := flag.Uint64("seed", 1, "base seed")
	epochs := flag.Int("epochs", 60, "MLP training epochs")
	attacker := flag.String("attacker", "mlp", "classifier: mlp, template, knn")
	parallel := flag.Int("parallel", 0, "worker count for collection and training (0 = GOMAXPROCS)")
	folds := flag.Int("folds", 0, "additionally k-fold cross-validate the MLP (0 = off)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this address during the run")
	flag.Parse()

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

	kind, ok := defense.KindByName(*defName)
	if !ok {
		log.Fatalf("unknown defense %q (%s)", *defName, strings.Join(defense.KindNames, ", "))
	}

	var (
		cfg      sim.Config
		classes  []defense.Class
		spec     attack.Spec
		outlet   bool
		attPer   int
		goalName string
	)
	switch *experiment {
	case "apps":
		cfg = sim.Sys1()
		classes = defense.AppClasses(*scale)
		spec = attack.DefaultSpec()
		spec.WindowLen = int(*seconds * 50 / 5)
		attPer = 20
		goalName = "detect the running application (Fig 6)"
	case "videos":
		cfg = sim.Sys2()
		classes = defense.VideoClasses(*scale * 2)
		spec = attack.DefaultSpec()
		spec.WindowLen = int(*seconds * 50 / 5)
		attPer = 20
		goalName = "identify the video being encoded (Fig 8)"
	case "pages":
		cfg = sim.Sys3()
		classes = defense.PageClasses(*scale * 8)
		spec = attack.FFTSpec()
		spec.WindowLen = 128
		outlet = true
		attPer = 50
		goalName = "identify the webpage visited (Fig 9)"
	default:
		log.Fatalf("unknown experiment %q", *experiment)
	}
	spec.Train.Epochs = *epochs

	var art *core.Design
	if kind == defense.MayaConstant || kind == defense.MayaGS {
		log.Printf("designing Maya controller for %s...", cfg.Name)
		var err error
		art, err = core.DesignFor(cfg, core.DefaultDesignOptions())
		if err != nil {
			log.Fatal(err)
		}
	}

	log.Printf("collecting %d traces × %d classes under %v on %s...",
		*runs, len(classes), kind, cfg.Name)
	start := time.Now() //maya:wallclock collection timing for the progress log only
	ds, _ := defense.Collect(context.Background(), defense.CollectSpec{
		Cfg:               cfg,
		Design:            defense.NewDesign(kind, cfg, art, 20),
		Classes:           classes,
		RunsPerClass:      *runs,
		MaxTicks:          int(*seconds * 1000),
		WarmupTicks:       2000,
		AttackPeriodTicks: attPer,
		Outlet:            outlet,
		Seed:              *seed,
		Workers:           *parallel,
		Metrics:           defense.NewCollectMetrics(reg),
		PoolMetrics:       runner.NewMetrics(reg),
	})
	log.Printf("collected in %.1fs; training the MLP...", time.Since(start).Seconds()) //maya:wallclock progress log

	switch *attacker {
	case "mlp":
		res, err := attack.Run(ds, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attack:   %s (MLP)\n", goalName)
		fmt.Printf("defense:  %v\n", kind)
		fmt.Printf("examples: %d (input dim %d)\n", res.Examples, res.InputDim)
		fmt.Printf("chance:   %.1f%%\n\n", 100*res.Chance)
		fmt.Print(res.Confusion.String())
		if *folds >= 2 {
			log.Printf("cross-validating across %d folds...", *folds)
			cv, err := attack.CrossValidate(ds, spec, *folds, *parallel)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n%d-fold CV: %.1f%% ± %.1f%% (folds:", *folds, 100*cv.MeanAccuracy, 100*cv.StdAccuracy)
			for _, a := range cv.FoldAccuracy {
				fmt.Printf(" %.1f%%", 100*a)
			}
			fmt.Printf(")\n")
		}
	case "template":
		acc, err := attack.RunTemplate(ds, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attack:   %s (templates)\n", goalName)
		fmt.Printf("defense:  %v\n", kind)
		fmt.Printf("accuracy: %.1f%% (chance %.1f%%)\n", 100*acc, 100/float64(len(classes)))
	case "knn":
		acc, err := attack.RunKNN(ds, spec, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attack:   %s (5-NN)\n", goalName)
		fmt.Printf("defense:  %v\n", kind)
		fmt.Printf("accuracy: %.1f%% (chance %.1f%%)\n", 100*acc, 100/float64(len(classes)))
	default:
		log.Fatalf("unknown attacker %q (mlp, template, knn)", *attacker)
	}
}
