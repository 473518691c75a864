package sysid

import (
	"errors"
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/signal"
	"github.com/maya-defense/maya/internal/sim"
)

// synth generates data from a known ARX system for recovery tests.
func synth(seed uint64, n int, a []float64, b [][]float64, noise float64) ([]float64, [][]float64) {
	r := rng.New(seed)
	nu := len(b)
	order := len(a)
	u := make([][]float64, nu)
	for j := range u {
		u[j] = make([]float64, n)
		// Random steps held for random durations (persistently exciting).
		hold, val := 0, 0.0
		for t := 0; t < n; t++ {
			if hold == 0 {
				val = r.Float64()
				hold = r.IntRange(2, 10)
			}
			hold--
			u[j][t] = val
		}
	}
	y := make([]float64, n)
	for t := 0; t < n; t++ {
		s := 0.0
		for i := 1; i <= order; i++ {
			if t-i >= 0 {
				s += a[i-1] * y[t-i]
			}
		}
		for j := 0; j < nu; j++ {
			for i := 1; i <= order; i++ {
				if t-i >= 0 {
					s += b[j][i-1] * u[j][t-i]
				}
			}
		}
		y[t] = s + noise*r.NormFloat64()
	}
	return y, u
}

func TestFitRecoversKnownSystem(t *testing.T) {
	a := []float64{0.6, -0.1}
	b := [][]float64{{1.5, 0.3}, {-0.8, 0.2}}
	y, u := synth(1, 3000, a, b, 0.001)
	m, err := Fit(y, u, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(m.A[i]-a[i]) > 0.02 {
			t.Fatalf("a[%d]=%g want %g", i, m.A[i], a[i])
		}
	}
	for j := range b {
		for i := range b[j] {
			if math.Abs(m.B[j][i]-b[j][i]) > 0.02 {
				t.Fatalf("b[%d][%d]=%g want %g", j, i, m.B[j][i], b[j][i])
			}
		}
	}
	if m.FitR2 < 0.99 {
		t.Fatalf("R²=%g", m.FitR2)
	}
}

func TestFitWithNoiseStillGood(t *testing.T) {
	a := []float64{0.5}
	b := [][]float64{{2.0}}
	y, u := synth(2, 5000, a, b, 0.1)
	m, err := Fit(y, u, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A[0]-0.5) > 0.05 || math.Abs(m.B[0][0]-2.0) > 0.05 {
		t.Fatalf("noisy recovery off: a=%v b=%v", m.A, m.B)
	}
	if m.ResidualStd < 0.05 || m.ResidualStd > 0.2 {
		t.Fatalf("residual std %g inconsistent with injected noise 0.1", m.ResidualStd)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1, 2, 3}, [][]float64{{1, 2, 3}}, 2, 0); !errors.Is(err, ErrTooShort) {
		t.Fatalf("want ErrTooShort, got %v", err)
	}
	if _, err := Fit([]float64{1, 2}, nil, 1, 0); err == nil {
		t.Fatal("want error for no inputs")
	}
	if _, err := Fit([]float64{1, 2}, [][]float64{{1}}, 1, 0); err == nil {
		t.Fatal("want error for length mismatch")
	}
}

func TestDCGain(t *testing.T) {
	// y(T) = 0.5 y(T-1) + 1.0 u(T-1): DC gain = 1/(1-0.5) = 2.
	m := &Model{Order: 1, NumInputs: 1, A: []float64{0.5}, B: [][]float64{{1.0}}, UMean: []float64{0}}
	g := m.DCGain()
	if math.Abs(g[0]-2) > 1e-12 {
		t.Fatalf("DC gain %g want 2", g[0])
	}
}

func TestStable(t *testing.T) {
	stable := &Model{Order: 1, NumInputs: 1, A: []float64{0.9}, B: [][]float64{{1}}, UMean: []float64{0}}
	if !stable.Stable() {
		t.Fatal("|a|=0.9 should be stable")
	}
	unstable := &Model{Order: 1, NumInputs: 1, A: []float64{1.1}, B: [][]float64{{1}}, UMean: []float64{0}}
	if unstable.Stable() {
		t.Fatal("|a|=1.1 should be unstable")
	}
}

func TestSimulateTracksGroundTruth(t *testing.T) {
	a := []float64{0.7, -0.12}
	b := [][]float64{{1.2, 0.4}}
	y, u := synth(3, 2000, a, b, 0)
	m, err := Fit(y, u, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ysim := m.Simulate(u)
	// Free-run simulation should track after the initial transient.
	if r := signal.RMSE(ysim[100:], y[100:]); r > 0.05 {
		t.Fatalf("free-run RMSE %g", r)
	}
}

func TestCollectExcitationProducesUsableLog(t *testing.T) {
	cfg := sim.Sys1()
	log := CollectExcitation(cfg, TrainingSet(), 7, 20, 12000)
	if len(log.Y) < 500 {
		t.Fatalf("log too short: %d", len(log.Y))
	}
	if len(log.U) != 3 {
		t.Fatalf("want 3 input channels, got %d", len(log.U))
	}
	for j := range log.U {
		if len(log.U[j]) != len(log.Y) {
			t.Fatalf("channel %d length mismatch", j)
		}
		// Excitation must actually vary each input.
		if signal.StdDev(log.U[j]) < 0.1 {
			t.Fatalf("input %d barely excited: std=%g", j, signal.StdDev(log.U[j]))
		}
	}
	// Power must respond: output variance well above sensor noise.
	if signal.StdDev(log.Y) < 0.5 {
		t.Fatalf("output barely moves: std=%g", signal.StdDev(log.Y))
	}
}

func TestFitOnSimulatedMachine(t *testing.T) {
	// End-to-end §V-A: excite the simulated Sys1, fit order 4, and require
	// a usable one-step fit and stable dynamics.
	cfg := sim.Sys1()
	log := CollectExcitation(cfg, TrainingSet(), 11, 20, 15000)
	m, err := Fit(log.Y, log.U, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if m.FitR2 < 0.5 {
		t.Fatalf("machine model R²=%g too poor for control", m.FitR2)
	}
	if !m.Stable() {
		t.Fatal("identified model unstable")
	}
	g := m.DCGain()
	// Signs: DVFS and balloon raise power; idle injection lowers it.
	if g[0] <= 0 {
		t.Fatalf("DVFS DC gain %g should be positive", g[0])
	}
	if g[1] >= 0 {
		t.Fatalf("idle DC gain %g should be negative", g[1])
	}
	if g[2] <= 0 {
		t.Fatalf("balloon DC gain %g should be positive", g[2])
	}
}

func TestExcitationLogAppend(t *testing.T) {
	var a ExcitationLog
	b := ExcitationLog{Y: []float64{1, 2}, U: [][]float64{{3, 4}, {5, 6}, {7, 8}}}
	a.Append(b)
	a.Append(b)
	if len(a.Y) != 4 || len(a.U) != 3 || len(a.U[2]) != 4 {
		t.Fatalf("append broken: %+v", a)
	}
}
