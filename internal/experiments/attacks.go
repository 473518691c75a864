package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/maya-defense/maya/internal/attack"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/sim"
)

// AttackOutcome is one defense's confusion-matrix result.
type AttackOutcome struct {
	Defense  string
	Accuracy float64
	Matrix   [][]float64
}

// AttackResult covers Figs 6, 8, and 9: one classification attack evaluated
// against the defended systems.
type AttackResult struct {
	Artifact string // "Fig 6", "Fig 8", "Fig 9"
	Goal     string
	Machine  string
	Classes  []string
	Chance   float64
	Outcomes []AttackOutcome
	// PaperAccuracies records the paper's reported numbers for comparison
	// in the rendered report (same defense order as Outcomes).
	PaperAccuracies []float64
}

// ID implements Result.
func (r *AttackResult) ID() string { return r.Artifact }

// AttackSetup is one of the paper's three classification attacks (§VI-A):
// the machine it watches, the classes it tells apart, and the attacker's
// tap and features. Figs 6, 8 and 9 and `mayactl attack` run from it.
type AttackSetup struct {
	Artifact string // "Fig 6", "Fig 8", "Fig 9"
	Goal     string
	Config   sim.Config
	Classes  []defense.Class
	// Spec holds the features, with one window spanning the whole trace;
	// the caller sets Train.Epochs.
	Spec        attack.Spec
	Outlet      bool // AC outlet tap instead of the RAPL counters
	PeriodTicks int  // attacker sampling interval
	// Paper holds the paper's accuracies against Random Inputs, Maya
	// Constant and Maya GS, in that order.
	Paper []float64
}

// NewAttackSetup returns the setup of the attack named apps (Fig 6),
// videos (Fig 8) or pages (Fig 9) for traces of traceTicks ticks of
// workloads at workloadScale.
func NewAttackSetup(name string, workloadScale float64, traceTicks int) (AttackSetup, error) {
	s := AttackSetup{Spec: attack.DefaultSpec(), PeriodTicks: 20}
	// 20 ms samples averaged in blocks of 5: one window per trace.
	s.Spec.WindowLen = traceTicks / 20 / 5
	switch name {
	case "apps": // 11 PARSEC/SPLASH programs on Sys1, RAPL counters
		s.Artifact, s.Goal, s.Config = "Fig 6", "detect the running application", sim.Sys1()
		s.Classes = defense.AppClasses(workloadScale)
		s.Paper = []float64{0.94, 0.62, 0.14}
	case "videos": // 4 encodes on Sys2
		s.Artifact, s.Goal, s.Config = "Fig 8", "identify the video being encoded", sim.Sys2()
		// Sys2's encoder runs a larger machine; scale videos up slightly so
		// the encode spans the window.
		s.Classes = defense.VideoClasses(workloadScale * 2)
		s.Paper = []float64{0.72, 0.90, 0.24}
	case "pages": // 7 pages on Sys3, AC outlet tap at 50 ms, FFT features
		s.Artifact, s.Goal, s.Config = "Fig 9", "identify the webpage visited", sim.Sys3()
		s.Classes = defense.PageClasses(workloadScale * 8)
		s.Spec = attack.FFTSpec()
		// 50 ms samples; one whole-trace window — the visit's envelope
		// (fetch, layout, steady-state) lives in the low-frequency bins,
		// and its level in the mean feature.
		s.Spec.WindowLen = traceTicks / 50
		s.Outlet, s.PeriodTicks = true, 50
		s.Paper = []float64{0.51, 0.40, 0.10}
	default:
		return AttackSetup{}, fmt.Errorf("unknown attack %q (apps, videos, pages)", name)
	}
	return s, nil
}

// attackKinds is the defense order of Figs 6/8/9.
var attackKinds = []defense.Kind{defense.RandomInputs, defense.MayaConstant, defense.MayaGS}

// runAttack collects per-defense datasets for the named attack and runs
// the classifier.
func runAttack(ctx context.Context, name string, sc Scale, seed uint64) (*AttackResult, error) {
	s, err := NewAttackSetup(name, sc.WorkloadScale, sc.TraceTicks)
	if err != nil {
		return nil, err
	}
	d, err := DesignFor(s.Config)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(s.Classes))
	for i, c := range s.Classes {
		names[i] = c.Name
	}
	res := &AttackResult{
		Artifact: s.Artifact, Goal: s.Goal, Machine: s.Config.Name,
		Classes: names, Chance: 1 / float64(len(s.Classes)),
		PaperAccuracies: s.Paper,
	}
	spec := s.Spec
	spec.Train.Epochs = sc.Epochs
	for i, kind := range attackKinds {
		ds, _ := defense.Collect(ctx, defense.CollectSpec{
			Cfg:               s.Config,
			Design:            defense.NewDesign(kind, s.Config, d, 20),
			Classes:           s.Classes,
			RunsPerClass:      sc.RunsPerClass,
			MaxTicks:          sc.TraceTicks,
			WarmupTicks:       sc.WarmupTicks,
			AttackPeriodTicks: s.PeriodTicks,
			Outlet:            s.Outlet,
			Seed:              seed + uint64(i+1)*1_000_000_007,
		})
		ar, err := attack.Run(ds, spec)
		if err != nil {
			return nil, fmt.Errorf("%s vs %v: %w", s.Artifact, kind, err)
		}
		res.Outcomes = append(res.Outcomes, AttackOutcome{
			Defense:  kind.String(),
			Accuracy: ar.AverageAccuracy,
			Matrix:   ar.Confusion.Matrix,
		})
	}
	return res, nil
}

// Fig6 runs the running-application detection attack.
func Fig6(ctx context.Context, sc Scale, seed uint64) (*AttackResult, error) {
	return runAttack(ctx, "apps", sc, seed)
}

// Fig8 runs the video-identification attack.
func Fig8(ctx context.Context, sc Scale, seed uint64) (*AttackResult, error) {
	return runAttack(ctx, "videos", sc, seed)
}

// Fig9 runs the webpage-identification attack (§VI-A attack 3).
func Fig9(ctx context.Context, sc Scale, seed uint64) (*AttackResult, error) {
	return runAttack(ctx, "pages", sc, seed)
}

// Render implements Result.
func (r *AttackResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s), %d classes, chance %.0f%%\n",
		r.Artifact, r.Goal, r.Machine, len(r.Classes), 100*r.Chance)
	fmt.Fprintf(&b, "%-15s %10s %12s\n", "defense", "measured", "paper")
	for i, o := range r.Outcomes {
		paper := "-"
		if i < len(r.PaperAccuracies) {
			paper = fmt.Sprintf("%.0f%%", 100*r.PaperAccuracies[i])
		}
		fmt.Fprintf(&b, "%-15s %9.0f%% %12s\n", o.Defense, 100*o.Accuracy, paper)
	}
	// Confusion matrix of the proposed defense (last outcome).
	if n := len(r.Outcomes); n > 0 {
		b.WriteString("Maya GS confusion matrix (rows = true class):\n")
		for _, row := range r.Outcomes[n-1].Matrix {
			for _, v := range row {
				fmt.Fprintf(&b, " %5.2f", v)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Fig12Result reproduces the attacker sampling-interval sweep against
// Maya GS (defense fixed at 20 ms).
type Fig12Result struct {
	Chance     float64
	IntervalMS []int
	Accuracy   []float64
}

// ID implements Result.
func (r *Fig12Result) ID() string { return "Fig 12" }

// Fig12 repeats the application-detection attack on Maya GS with attacker
// sampling intervals of 2, 5, 10, and 20 ms.
func Fig12(ctx context.Context, sc Scale, seed uint64) (*Fig12Result, error) {
	cfg := sim.Sys1()
	d, err := DesignFor(cfg)
	if err != nil {
		return nil, err
	}
	classes := defense.AppClasses(sc.WorkloadScale)
	res := &Fig12Result{Chance: 1 / float64(len(classes))}
	for _, ms := range []int{2, 5, 10, 20} {
		ds, _ := defense.Collect(ctx, defense.CollectSpec{
			Cfg:               cfg,
			Design:            defense.NewDesign(defense.MayaGS, cfg, d, 20),
			Classes:           classes,
			RunsPerClass:      sc.RunsPerClass,
			MaxTicks:          sc.TraceTicks,
			WarmupTicks:       sc.WarmupTicks,
			AttackPeriodTicks: ms,
			Seed:              seed + uint64(ms)*13,
		})
		spec := attack.DefaultSpec()
		// Keep the MLP input size constant across rates: average more
		// aggressively at faster sampling (the paper's 5-sample averaging
		// at 20 ms becomes 50 samples at 2 ms).
		spec.AvgBlock = 5 * 20 / ms
		spec.WindowLen = sc.TraceTicks / 20 / 5
		spec.Train.Epochs = sc.Epochs
		ar, err := attack.Run(ds, spec)
		if err != nil {
			return nil, err
		}
		res.IntervalMS = append(res.IntervalMS, ms)
		res.Accuracy = append(res.Accuracy, ar.AverageAccuracy)
	}
	return res, nil
}

// Render implements Result.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — attacker sampling sweep vs Maya GS (chance %.0f%%)\n", r.ID(), 100*r.Chance)
	for i := range r.IntervalMS {
		fmt.Fprintf(&b, "  %2d ms: %5.1f%%\n", r.IntervalMS[i], 100*r.Accuracy[i])
	}
	b.WriteString("expected: accuracy stays near chance at every sampling interval\n")
	b.WriteString("(paper: faster sampling does not improve detection).\n")
	return b.String()
}
