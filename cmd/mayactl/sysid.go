package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"github.com/maya-defense/maya/internal/control"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/mask"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sysid"
)

// sysidCmd performs the §V-A design pipeline step by step and prints each
// artifact: the excitation log statistics, the fitted ARX model (Eq. 3),
// the state-space realization check, the synthesized controller (Eq. 1)
// with its report, and the derived mask band.
func sysidCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sysid", flag.ExitOnError)
	machine := fs.String("machine", "sys1", "machine preset or config JSON path")
	order := fs.Int("order", 4, "ARX model order (paper: 4)")
	guardband := fs.Float64("guardband", 0.4, "uncertainty guardband (paper: 0.4)")
	seed := fs.Uint64("seed", 1, "excitation seed")
	showMatrices := fs.Bool("matrices", false, "print the Eq. 1 controller matrices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := machineConfig(*machine)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "== System identification on %s (§V-A)\n", cfg.Name)
	logData := sysid.CollectExcitation(cfg, sysid.TrainingSet(), *seed, 20, 20000)
	fmt.Fprintf(stdout, "excitation log: %d samples; power mean %.1f W, std %.2f W\n",
		len(logData.Y), signal.Mean(logData.Y), signal.StdDev(logData.Y))

	model, err := sysid.Fit(logData.Y, logData.U, *order, 1e-6)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nARX model (order %d, Eq. 3):\n  a = %v\n", model.Order, model.A)
	for j, b := range model.B {
		fmt.Fprintf(stdout, "  b[%s] = %v\n", []string{"dvfs", "idle", "balloon"}[j], b)
	}
	fmt.Fprintf(stdout, "  one-step R² = %.4f, residual σ = %.2f W, stable = %v\n",
		model.FitR2, model.ResidualStd, model.Stable())
	fmt.Fprintf(stdout, "  DC gains (W per full-range input): %v\n", model.DCGain())

	// Cross-run validation (Ljung's methodology): fresh excitation data.
	valData := sysid.CollectExcitation(cfg, sysid.TrainingSet(), *seed+1000, 20, 10000)
	if v, err := sysid.Validate(model, valData.Y, valData.U, 10); err == nil {
		fmt.Fprintf(stdout, "\ncross-run validation: %v\n", v)
	}

	plant := control.FromARX(model)
	if err := plant.Verify(model, 1e-6); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nstate-space realization verified (observer canonical, %d states)\n", plant.Order())

	spec := control.DefaultSpec(3)
	spec.Guardband = *guardband
	ctl, rep, err := control.Synthesize(plant, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nsynthesized controller (Eq. 1):\n  %v\n", ctl)
	fmt.Fprintf(stdout, "  closed-loop spectral radius: %.4f\n", rep.ClosedLoopRadius)
	fmt.Fprintf(stdout, "  predicted disturbance peak:  %.2f W per 1 W step\n", rep.DeviationBound)
	fmt.Fprintf(stdout, "  predicted settle time:       %d periods (%.0f ms)\n", rep.SettleSteps, float64(rep.SettleSteps)*20)

	// Loop-shaping view: sensitivity magnitude at representative
	// frequencies (|S| < 1 means application disturbances there are
	// rejected; |S| > 1 means amplified — the waterbed near Nyquist).
	freqs := []float64{0.05, 0.2, 0.5, 1, 2, 5, 10, 20}
	sens := control.Sensitivity(plant, ctl, freqs, 0.02)
	fmt.Fprintf(stdout, "\ndisturbance sensitivity |S(f)|:\n")
	for i, f := range freqs {
		fmt.Fprintf(stdout, "  %5.2f Hz: %.2f\n", f, sens[i])
	}

	full, err := core.DesignFor(cfg, core.DefaultDesignOptions())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nmask band for this machine: [%.1f, %.1f] W (TDP %.0f W)\n",
		full.Band.Min, full.Band.Max, cfg.TDP)

	if *showMatrices {
		A, B, C, D := ctl.Matrices()
		fmt.Fprintf(stdout, "\nA (%dx%d):\n%v", A.Rows(), A.Cols(), A)
		fmt.Fprintf(stdout, "B (%dx%d):\n%v", B.Rows(), B.Cols(), B)
		fmt.Fprintf(stdout, "C (%dx%d):\n%v", C.Rows(), C.Cols(), C)
		fmt.Fprintf(stdout, "D (%dx%d):\n%v", D.Rows(), D.Cols(), D)
	}
	return nil
}

// maskCmd emits a mask target sequence — the raw material of Fig 4 and
// Table II — as time,value rows, or with -fft as frequency,magnitude rows
// of its one-sided spectrum.
func maskCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mask", flag.ExitOnError)
	kind := fs.String("mask", "gs", "mask family: constant, uniform, gaussian, sinusoid, gs")
	seconds := fs.Float64("seconds", 20, "signal duration")
	minW := fs.Float64("min", 8, "band minimum (W)")
	maxW := fs.Float64("max", 24, "band maximum (W)")
	hz := fs.Float64("hz", 50, "sample rate (the 20 ms loop = 50 Hz)")
	seed := fs.Uint64("seed", 1, "mask secret seed")
	fft := fs.Bool("fft", false, "emit the magnitude spectrum instead of the time series")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Like runTicks for a run's ticks: at least one sample and at most
	// 1<<20 (the negation also refuses NaN and a non-positive -hz).
	samples := *seconds * *hz
	if !(samples >= 1 && samples <= 1<<20) {
		return fmt.Errorf("seconds %g at %g Hz is %g samples, want 1 to %d", *seconds, *hz, samples, 1<<20)
	}

	// The generators panic on an empty band, and NewConstant would print
	// the midpoint of any two numbers; both would pass NaN through.
	if math.IsInf(*minW, 0) || math.IsInf(*maxW, 0) || !(*maxW > *minW) {
		return fmt.Errorf("band [%g, %g] W is empty or not finite, want -min < -max", *minW, *maxW)
	}
	band := mask.Band{Min: *minW, Max: *maxW}
	hold := mask.DefaultHold()
	var g mask.Generator
	switch *kind {
	case "constant":
		g = mask.NewConstant(band.Mid())
	case "uniform":
		g = mask.NewUniformRandom(band, hold, *seed)
	case "gaussian":
		g = mask.NewGaussian(band, hold, *seed)
	case "sinusoid":
		g = mask.NewSinusoid(band, hold, *hz, *seed)
	case "gs":
		g = mask.NewGaussianSinusoid(band, hold, *hz, *seed)
	default:
		return fmt.Errorf("unknown mask %q", *kind)
	}

	x := mask.Generate(g, int(samples))
	if *fft {
		freqs, mags := signal.Spectrum(x, *hz)
		fmt.Fprintln(stdout, "freq_hz,magnitude")
		for i := range freqs {
			fmt.Fprintf(stdout, "%.4f,%.5f\n", freqs[i], mags[i])
		}
		return nil
	}
	fmt.Fprintln(stdout, "time_s,target_w")
	for i, v := range x {
		fmt.Fprintf(stdout, "%.3f,%.4f\n", float64(i)/(*hz), v)
	}
	return nil
}
