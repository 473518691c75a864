package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/maya-defense/maya/internal/changepoint"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// collectForStats captures RunsPerClass traces per app under one defense.
func collectForStats(ctx context.Context, cfg sim.Config, kind defense.Kind, classes []defense.Class, sc Scale, seed uint64) (*trace.Dataset, error) {
	d, err := DesignFor(cfg)
	if err != nil {
		return nil, err
	}
	ds, _ := defense.Collect(ctx, defense.CollectSpec{
		Cfg:          cfg,
		Design:       defense.NewDesign(kind, cfg, d, 20),
		Classes:      classes,
		RunsPerClass: sc.AvgRuns,
		MaxTicks:     sc.TraceTicks,
		WarmupTicks:  sc.WarmupTicks,
		Seed:         seed,
	})
	return ds, nil
}

// averagedByClass averages all traces of each label (the paper's 1,000-run
// averages of Figs 7 and 10).
func averagedByClass(ds *trace.Dataset) [][]float64 {
	out := make([][]float64, ds.NumClasses())
	byl := ds.ByLabel()
	for l := 0; l < ds.NumClasses(); l++ {
		var traces [][]float64
		for _, i := range byl[l] {
			traces = append(traces, ds.Traces[i].Samples)
		}
		out[l] = signal.AverageTraces(traces)
	}
	return out
}

// Fig7Result reproduces the summary-statistics box plots: the distribution
// of power values in the averaged per-app signals, per defense.
type Fig7Result struct {
	Defenses []string
	Classes  []string
	// Boxes[d][c] is the box plot of defense d / class c.
	Boxes [][]signal.BoxStats
	// MedianSpread[d] is max−min of class medians under defense d — the
	// "fingerprint separation" the attacker exploits; Maya GS should
	// collapse it toward zero.
	MedianSpread []float64
}

// ID implements Result.
func (r *Fig7Result) ID() string { return "Fig 7" }

// fig7Kinds is the defense order of Fig 7.
var fig7Kinds = []defense.Kind{defense.NoisyBaseline, defense.RandomInputs, defense.MayaConstant, defense.MayaGS}

// Fig7 computes the averaged-signal statistics for the app classes on Sys1.
func Fig7(ctx context.Context, sc Scale, seed uint64) (*Fig7Result, error) {
	cfg := sim.Sys1()
	classes := defense.AppClasses(sc.WorkloadScale)
	res := &Fig7Result{}
	for _, c := range classes {
		res.Classes = append(res.Classes, c.Name)
	}
	for i, kind := range fig7Kinds {
		ds, err := collectForStats(ctx, cfg, kind, classes, sc, seed+uint64(i+1)*97)
		if err != nil {
			return nil, err
		}
		avgs := averagedByClass(ds)
		var boxes []signal.BoxStats
		lo, hi := 0.0, 0.0
		for c, avg := range avgs {
			b := signal.Box(avg)
			boxes = append(boxes, b)
			if c == 0 {
				lo, hi = b.Median, b.Median
			}
			if b.Median < lo {
				lo = b.Median
			}
			if b.Median > hi {
				hi = b.Median
			}
		}
		res.Defenses = append(res.Defenses, kind.String())
		res.Boxes = append(res.Boxes, boxes)
		res.MedianSpread = append(res.MedianSpread, hi-lo)
	}
	return res, nil
}

// Render implements Result.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — box stats of per-class averaged signals\n", r.ID())
	for d, name := range r.Defenses {
		fmt.Fprintf(&b, "%s: median spread across apps = %.2f W\n", name, r.MedianSpread[d])
		for c, box := range r.Boxes[d] {
			fmt.Fprintf(&b, "  %-15s med=%6.2f IQR=%5.2f [%6.2f, %6.2f]\n",
				r.Classes[c], box.Median, box.IQR(), box.Min, box.Max)
		}
	}
	b.WriteString("expected: the spread shrinks from Noisy Baseline through Maya Constant\n")
	b.WriteString("and nearly vanishes for Maya GS (near-identical distributions).\n")
	return b.String()
}

// Fig10Result reproduces the averaged traces of blackscholes, bodytrack,
// and water_nsquared under each defense.
type Fig10Result struct {
	Defenses []string
	Apps     []string
	// Distinctness[d] is the mean pairwise RMS difference between the
	// class-averaged traces under defense d — how recognizably different
	// the apps' averages are (the quantity visible in Fig 10's panels).
	Distinctness []float64
	// MeanSpread[d] is max−min of the averaged traces' means.
	MeanSpread []float64
	Traces     [][][]float64
}

// ID implements Result.
func (r *Fig10Result) ID() string { return "Fig 10" }

// Fig10 computes averaged traces for three apps under the Fig 7 defenses.
func Fig10(ctx context.Context, sc Scale, seed uint64) (*Fig10Result, error) {
	cfg := sim.Sys1()
	apps := []string{"blackscholes", "bodytrack", "water_nsquared"}
	var classes []defense.Class
	for _, n := range apps {
		name := n
		classes = append(classes, defense.Class{Name: name, New: func() workload.Workload {
			return workload.NewApp(name).Scale(sc.WorkloadScale)
		}})
	}
	res := &Fig10Result{Apps: apps}
	for i, kind := range fig7Kinds {
		ds, err := collectForStats(ctx, cfg, kind, classes, sc, seed+uint64(i+11)*31)
		if err != nil {
			return nil, err
		}
		avgs := averagedByClass(ds)
		lo, hi := 0.0, 0.0
		for c, avg := range avgs {
			m := signal.Mean(avg)
			if c == 0 {
				lo, hi = m, m
			}
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		var dist float64
		pairs := 0
		for a := 0; a < len(avgs); a++ {
			for b := a + 1; b < len(avgs); b++ {
				n := len(avgs[a])
				if len(avgs[b]) < n {
					n = len(avgs[b])
				}
				dist += signal.RMSE(avgs[a][:n], avgs[b][:n])
				pairs++
			}
		}
		if pairs > 0 {
			dist /= float64(pairs)
		}
		res.Defenses = append(res.Defenses, kind.String())
		res.Distinctness = append(res.Distinctness, dist)
		res.MeanSpread = append(res.MeanSpread, hi-lo)
		res.Traces = append(res.Traces, avgs)
	}
	return res, nil
}

// Render implements Result.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — averaged traces of %v\n", r.ID(), r.Apps)
	for d, name := range r.Defenses {
		fmt.Fprintf(&b, "%-15s mean spread=%.2f W, pairwise distinctness=%.2f W\n",
			name, r.MeanSpread[d], r.Distinctness[d])
	}
	b.WriteString("expected: only Maya GS makes the averaged traces indistinguishable\n")
	b.WriteString("(distinctness near the noise floor).\n")
	return b.String()
}

// Fig11Result reproduces the change-point analysis of blackscholes under
// each design: the detected change points should match the application's
// true phase transitions for every design except Maya GS.
type Fig11Result struct {
	Defenses []string
	// TruePhases is the number of ground-truth transitions (including
	// completion).
	TruePhases int
	// MatchScore[d] is the fraction of true transitions detected within
	// tolerance under defense d.
	MatchScore []float64
	// Detected[d] is the number of change points found.
	Detected []int
	// EndVisible[d] reports whether a change point lands near the true
	// completion time (Fig 11d: with Maya GS "it is impossible to infer
	// when the application completed").
	EndVisible []bool
}

// ID implements Result.
func (r *Fig11Result) ID() string { return "Fig 11" }

// fig11Kinds matches Fig 11's panels.
var fig11Kinds = []defense.Kind{defense.NoisyBaseline, defense.RandomInputs, defense.MayaConstant, defense.MayaGS}

// Fig11 runs blackscholes under each design and applies change-point
// detection to the defended power trace.
func Fig11(ctx context.Context, sc Scale, seed uint64) (*Fig11Result, error) {
	cfg := sim.Sys1()
	d, err := DesignFor(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{}
	for i, kind := range fig11Kinds {
		samples, truth, endSample := instrumentedRun(cfg, kind, d, sc, seed+uint64(i)*7)
		// The analyst smooths the trace first (random-input modulation is
		// fast; application phases are slow — Fig 11b's phases are visible
		// through the noise), then runs budgeted detection as with
		// findchangepts(MaxNumChanges). An unbudgeted detector under Maya
		// GS returns dozens of artificial change points, which would
		// trivially "match" everything.
		smoothed := signal.MovingAverage(samples, 15)
		budget := len(truth) + 2
		cps := changepoint.BinarySegmentation(smoothed, budget, 1, 8)
		tol := 15 // 0.3 s (smoothing blurs edges slightly)
		score := changepoint.MatchScore(truth, cps, tol)
		endVis := false
		if endSample > 0 {
			for _, cp := range cps {
				if abs(cp-endSample) <= tol {
					endVis = true
					break
				}
			}
		}
		res.Defenses = append(res.Defenses, kind.String())
		res.TruePhases = len(truth)
		res.MatchScore = append(res.MatchScore, score)
		res.Detected = append(res.Detected, len(cps))
		res.EndVisible = append(res.EndVisible, endVis)
	}
	return res, nil
}

// instrumentedRun executes blackscholes under the given defense while
// recording both the defended power samples and the ground-truth sample
// indices of phase transitions (including completion): the paper's Fig 11
// overlays detected change points on the known phase structure.
func instrumentedRun(cfg sim.Config, kind defense.Kind, art *core.Design, sc Scale, seed uint64) (samples []float64, transitions []int, endSample int) {
	m := sim.NewMachine(cfg, seed)
	w := workload.NewApp("blackscholes").Scale(sc.WorkloadScale)
	w.Reset(seed + 1)
	pol := defense.NewDesign(kind, cfg, art, 20).Policy(seed + 2)

	// phases samples w's phase index at the end of every period. The
	// warmup steps an idle workload, so w is still in its starting phase,
	// last, when recording begins.
	phases := &sim.Sampler{PeriodTicks: 20, Sensor: &probe{
		read: func(sim.StepResult) float64 { return float64(w.PhaseIndex()) },
	}}
	last := w.PhaseIndex()
	res := sim.Run(m, w, pol, sim.RunSpec{
		ControlPeriodTicks: 20,
		MaxTicks:           sc.TraceTicks,
		WarmupTicks:        sc.WarmupTicks,
		Samplers:           []*sim.Sampler{phases},
	})
	for i, v := range phases.Samples {
		if p := int(v); p != last {
			transitions = append(transitions, i+1)
			last = p
		}
	}
	endSample = -1
	if res.FinishedTick >= 0 {
		endSample = int(res.FinishedTick-1) / 20
	}
	return res.DefenseSamples, transitions, endSample
}

// probe is a sim.PowerSensor for a quantity other than power: ReadW
// returns read applied to the last tick observed. Fig 11 samples the
// workload's phase with it, and Thermal the die temperature.
type probe struct {
	read func(sim.StepResult) float64
	v    float64
}

func (p *probe) Observe(r sim.StepResult) { p.v = p.read(r) }
func (p *probe) ReadW() float64           { return p.v }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Render implements Result.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — change-point detection on blackscholes (%d true transitions)\n", r.ID(), r.TruePhases)
	fmt.Fprintf(&b, "%-15s %12s %10s %12s\n", "defense", "match score", "detected", "end visible")
	for i, name := range r.Defenses {
		fmt.Fprintf(&b, "%-15s %12.2f %10d %12v\n", name, r.MatchScore[i], r.Detected[i], r.EndVisible[i])
	}
	b.WriteString("expected: phases recoverable under every design except Maya GS, whose\n")
	b.WriteString("detected change points are artificial and hide the completion time.\n")
	return b.String()
}

// Fig13Result compares the distribution of mask targets with the measured
// power under Maya GS (controller tracking quality, §VII-D).
type Fig13Result struct {
	Classes        []string
	TargetBoxes    []signal.BoxStats
	MeasuredBoxes  []signal.BoxStats
	MedianAbsDelta float64
	TrackingMAD    []float64
}

// ID implements Result.
func (r *Fig13Result) ID() string { return "Fig 13" }

// Fig13 runs Maya GS over the app classes, recording both the generated
// targets and the measured power.
func Fig13(ctx context.Context, sc Scale, seed uint64) (*Fig13Result, error) {
	cfg := sim.Sys1()
	art, err := DesignFor(cfg)
	if err != nil {
		return nil, err
	}
	classes := defense.AppClasses(sc.WorkloadScale)
	res := &Fig13Result{}
	worstDelta := 0.0
	// One pool job per class; per-run seeds are a pure function of
	// (seed, class, run), so the fan-out is deterministic.
	type classStats struct {
		target, measured signal.BoxStats
		mad              float64
	}
	perClass, err := runner.MapN(ctx, runner.Options{}, len(classes),
		func(_ context.Context, ci int, _ *rng.Stream) (classStats, error) {
			cl := classes[ci]
			var tgts, meas []float64
			var mads []float64
			for run := 0; run < max(sc.AvgRuns/4, 4); run++ {
				s := seed + uint64(ci)*101 + uint64(run)*13
				m := sim.NewMachine(cfg, s)
				w := cl.New()
				w.Reset(s + 1)
				eng := defense.NewDesign(defense.MayaGS, cfg, art, 20).Policy(s + 2)
				run := sim.Run(m, w, eng, sim.RunSpec{
					ControlPeriodTicks: 20, MaxTicks: sc.TraceTicks, WarmupTicks: sc.WarmupTicks,
				})
				// The engine records every issued target; align with samples.
				if e, ok := eng.(interface{ MaskTargets() []float64 }); ok {
					t := e.MaskTargets()
					first := run.FirstStep
					n := len(run.DefenseSamples)
					if first+n <= len(t) {
						tgts = append(tgts, t[first:first+n]...)
						meas = append(meas, run.DefenseSamples...)
						mads = append(mads, signal.MeanAbsDeviation(run.DefenseSamples, t[first:first+n]))
					}
				}
			}
			return classStats{target: signal.Box(tgts), measured: signal.Box(meas), mad: signal.Mean(mads)}, nil
		})
	if err != nil {
		return nil, err
	}
	for ci, cs := range perClass {
		res.Classes = append(res.Classes, classes[ci].Name)
		res.TargetBoxes = append(res.TargetBoxes, cs.target)
		res.MeasuredBoxes = append(res.MeasuredBoxes, cs.measured)
		res.TrackingMAD = append(res.TrackingMAD, cs.mad)
		if d := absF(cs.target.Median - cs.measured.Median); d > worstDelta {
			worstDelta = d
		}
	}
	res.MedianAbsDelta = worstDelta
	return res, nil
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Render implements Result.
func (r *Fig13Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — mask targets vs measured power under Maya GS\n", r.ID())
	fmt.Fprintf(&b, "%-15s %18s %18s %10s\n", "app", "target med (IQR)", "measured med (IQR)", "MAD (W)")
	for i, c := range r.Classes {
		fmt.Fprintf(&b, "%-15s %10.2f (%4.2f) %11.2f (%4.2f) %10.2f\n",
			c, r.TargetBoxes[i].Median, r.TargetBoxes[i].IQR(),
			r.MeasuredBoxes[i].Median, r.MeasuredBoxes[i].IQR(), r.TrackingMAD[i])
	}
	fmt.Fprintf(&b, "worst median gap: %.2f W — the formal controller makes measured power\n", r.MedianAbsDelta)
	b.WriteString("track the generated mask (paper: \"accurate tracking is what makes Maya\n")
	b.WriteString("effectively re-shape the system's power\").\n")
	return b.String()
}
