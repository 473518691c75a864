// Command sysid performs the §V-A design pipeline step by step and prints
// each artifact: the excitation log statistics, the fitted ARX model
// (Eq. 3), the state-space realization check, the synthesized controller
// (Eq. 1) with its report, and the derived mask band.
//
// Usage:
//
//	sysid [-machine sys1|sys2|sys3] [-order 4] [-guardband 0.4] [-seed 1]
//	      [-matrices]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"github.com/maya-defense/maya/internal/control"
	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/sysid"
)

func main() {
	machine := flag.String("machine", "sys1", "machine preset")
	order := flag.Int("order", 4, "ARX model order (paper: 4)")
	guardband := flag.Float64("guardband", 0.4, "uncertainty guardband (paper: 0.4)")
	seed := flag.Uint64("seed", 1, "excitation seed")
	showMatrices := flag.Bool("matrices", false, "print the Eq. 1 controller matrices")
	flag.Parse()

	cfg, ok := sim.PresetByName(*machine)
	if !ok {
		log.Fatalf("unknown machine %q (%s)", *machine, strings.Join(sim.PresetNames, ", "))
	}

	fmt.Printf("== System identification on %s (§V-A)\n", cfg.Name)
	logData := sysid.CollectExcitation(cfg, sysid.TrainingSet(), *seed, 20, 20000)
	fmt.Printf("excitation log: %d samples; power mean %.1f W, std %.2f W\n",
		len(logData.Y), signal.Mean(logData.Y), signal.StdDev(logData.Y))

	model, err := sysid.Fit(logData.Y, logData.U, *order, 1e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nARX model (order %d, Eq. 3):\n  a = %v\n", model.Order, model.A)
	for j, b := range model.B {
		fmt.Printf("  b[%s] = %v\n", []string{"dvfs", "idle", "balloon"}[j], b)
	}
	fmt.Printf("  one-step R² = %.4f, residual σ = %.2f W, stable = %v\n",
		model.FitR2, model.ResidualStd, model.Stable())
	fmt.Printf("  DC gains (W per full-range input): %v\n", model.DCGain())

	// Cross-run validation (Ljung's methodology): fresh excitation data.
	valData := sysid.CollectExcitation(cfg, sysid.TrainingSet(), *seed+1000, 20, 10000)
	if v, err := sysid.Validate(model, valData.Y, valData.U, 10); err == nil {
		fmt.Printf("\ncross-run validation: %v\n", v)
	}

	plant := control.FromARX(model)
	if err := plant.Verify(model, 1e-6); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstate-space realization verified (observer canonical, %d states)\n", plant.Order())

	spec := control.DefaultSpec(3)
	spec.Guardband = *guardband
	ctl, rep, err := control.Synthesize(plant, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynthesized controller (Eq. 1):\n  %v\n", ctl)
	fmt.Printf("  closed-loop spectral radius: %.4f\n", rep.ClosedLoopRadius)
	fmt.Printf("  predicted disturbance peak:  %.2f W per 1 W step\n", rep.DeviationBound)
	fmt.Printf("  predicted settle time:       %d periods (%.0f ms)\n", rep.SettleSteps, float64(rep.SettleSteps)*20)

	// Loop-shaping view: sensitivity magnitude at representative
	// frequencies (|S| < 1 means application disturbances there are
	// rejected; |S| > 1 means amplified — the waterbed near Nyquist).
	freqs := []float64{0.05, 0.2, 0.5, 1, 2, 5, 10, 20}
	sens := control.Sensitivity(plant, ctl, freqs, 0.02)
	fmt.Printf("\ndisturbance sensitivity |S(f)|:\n")
	for i, f := range freqs {
		fmt.Printf("  %5.2f Hz: %.2f\n", f, sens[i])
	}

	full, err := core.DesignFor(cfg, core.DefaultDesignOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmask band for this machine: [%.1f, %.1f] W (TDP %.0f W)\n",
		full.Band.Min, full.Band.Max, cfg.TDP)

	if *showMatrices {
		A, B, C, D := ctl.Matrices()
		fmt.Printf("\nA (%dx%d):\n%v", A.Rows(), A.Cols(), A)
		fmt.Printf("B (%dx%d):\n%v", B.Rows(), B.Cols(), B)
		fmt.Printf("C (%dx%d):\n%v", C.Rows(), C.Cols(), C)
		fmt.Printf("D (%dx%d):\n%v", D.Rows(), D.Cols(), D)
	}
}
