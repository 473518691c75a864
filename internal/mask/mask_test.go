package mask

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/maya-defense/maya/internal/signal"
)

const sampleHz = 50.0 // the paper's 20 ms control loop

func testBand() Band { return Band{Min: 8, Max: 25} }

func allGenerators(seed uint64) []Generator {
	b := testBand()
	h := DefaultHold()
	return []Generator{
		NewConstant(b.Mid()),
		NewUniformRandom(b, h, seed),
		NewGaussian(b, h, seed),
		NewSinusoid(b, h, sampleHz, seed),
		NewGaussianSinusoid(b, h, sampleHz, seed),
	}
}

func TestAllMasksStayInBand(t *testing.T) {
	f := func(seed uint64) bool {
		b := testBand()
		for _, g := range allGenerators(seed) {
			for i := 0; i < 2000; i++ {
				v := g.Next()
				if v < b.Min-1e-9 || v > b.Max+1e-9 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTDPRespected(t *testing.T) {
	// §V-B constraint 1: targets never exceed the TDP-derived band max
	// (80% of a 30 W TDP).
	b := Band{Min: 7.5, Max: 0.8 * 30}
	if b.Max > 30 {
		t.Fatalf("band max %g above TDP", b.Max)
	}
	g := NewGaussianSinusoid(b, DefaultHold(), sampleHz, 3)
	for i := 0; i < 50000; i++ {
		if v := g.Next(); v > 30 {
			t.Fatalf("target %g above TDP", v)
		}
	}
}

func TestResetReproducible(t *testing.T) {
	for _, mk := range []func(seed uint64) Generator{
		func(s uint64) Generator { return NewUniformRandom(testBand(), DefaultHold(), s) },
		func(s uint64) Generator { return NewGaussian(testBand(), DefaultHold(), s) },
		func(s uint64) Generator { return NewSinusoid(testBand(), DefaultHold(), sampleHz, s) },
		func(s uint64) Generator { return NewGaussianSinusoid(testBand(), DefaultHold(), sampleHz, s) },
	} {
		a, b := mk(42), mk(42)
		for i := 0; i < 500; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%s not reproducible", a.Name())
			}
		}
		// Different seeds must produce different masks (the defender's
		// secret stream).
		c := mk(43)
		a.Reset(42)
		same := 0
		for i := 0; i < 500; i++ {
			if a.Next() == c.Next() {
				same++
			}
		}
		if same > 250 {
			t.Fatalf("%s seeds 42/43 nearly identical (%d/500 equal)", c.Name(), same)
		}
	}
}

func TestRunsUncorrelatedAcrossSeeds(t *testing.T) {
	// §VII-B: "Maya GS produces a different trace in each run that is
	// uncorrelated with other runs", which is why averaging 1000 traces
	// cancels the mask.
	g1 := NewGaussianSinusoid(testBand(), DefaultHold(), sampleHz, 1)
	g2 := NewGaussianSinusoid(testBand(), DefaultHold(), sampleHz, 2)
	x1 := Generate(g1, 3000)
	x2 := Generate(g2, 3000)
	if c := math.Abs(signal.Pearson(x1, x2)); c > 0.15 {
		t.Fatalf("masks across seeds correlate: %g", c)
	}
}

func TestAveragingManyRunsFlattens(t *testing.T) {
	var traces [][]float64
	for seed := uint64(0); seed < 200; seed++ {
		g := NewGaussianSinusoid(testBand(), DefaultHold(), sampleHz, seed)
		traces = append(traces, Generate(g, 1000))
	}
	avg := signal.AverageTraces(traces)
	single := traces[0]
	if signal.StdDev(avg) > 0.25*signal.StdDev(single) {
		t.Fatalf("averaging did not flatten: avg std %g vs single %g",
			signal.StdDev(avg), signal.StdDev(single))
	}
}

// windowStats computes per-window means and variances for time-domain
// property checks.
func windowStats(x []float64, win int) (means, vars []float64) {
	for _, w := range signal.Windows(x, win) {
		means = append(means, signal.Mean(w))
		vars = append(vars, signal.Variance(w))
	}
	return
}

func TestTableIIProperties(t *testing.T) {
	// Verify each Table II row as a relative property check.
	const n = 6000
	b := testBand()
	h := DefaultHold()

	constant := Generate(NewConstant(b.Mid()), n)
	uniform := Generate(NewUniformRandom(b, h, 7), n)
	gaussian := Generate(NewGaussian(b, h, 7), n)
	sinusoid := Generate(NewSinusoid(b, h, sampleHz, 7), n)
	gs := Generate(NewGaussianSinusoid(b, h, sampleHz, 7), n)

	// Time domain: mean changes (std of window means).
	cm, cv := windowStats(constant, 50)
	um, uv := windowStats(uniform, 50)
	gm, gv := windowStats(gaussian, 50)
	_, sv := windowStats(sinusoid, 50)
	xm, xv := windowStats(gs, 50)

	if signal.StdDev(cm) != 0 || signal.StdDev(cv) != 0 {
		t.Fatal("constant mask should not change at all")
	}
	if signal.StdDev(um) < 10*signal.StdDev(cm)+0.5 {
		t.Fatal("uniform mask should change its mean")
	}
	// Uniform holds each level: within-window variance mostly tiny compared
	// to Gaussian's.
	if signal.Quantile(uv, 0.5) > signal.Quantile(gv, 0.5) {
		t.Fatalf("uniform within-window variance (%g) should undercut gaussian (%g)",
			signal.Quantile(uv, 0.5), signal.Quantile(gv, 0.5))
	}
	if signal.StdDev(gm) < 0.5 || signal.StdDev(gv) < 0.1 {
		t.Fatal("gaussian mask should change mean and variance")
	}
	if signal.StdDev(sv) < 0.1 {
		t.Fatal("sinusoid mask should change windowed variance (amplitude draws)")
	}
	if signal.StdDev(xm) < 0.5 || signal.StdDev(xv) < 0.1 {
		t.Fatal("GS mask should change mean and variance")
	}

	// Frequency domain, evaluated per analysis window as in Fig 4:
	// average spectral flatness (spread) and peak counts over windows.
	winSpec := func(x []float64) (flat, peaks float64) {
		ws := signal.Windows(x, 250)
		for _, w := range ws {
			_, mag := signal.Spectrum(w, sampleHz)
			flat += signal.SpectralFlatness(mag)
			peaks += float64(signal.SpectralPeaks(mag))
		}
		n := float64(len(ws))
		return flat / n, peaks / n
	}
	flatG, _ := winSpec(gaussian)
	flatS, peakS := winSpec(sinusoid)
	flatX, peakX := winSpec(gs)
	_, peakU := winSpec(uniform)

	if flatG < 1.5*flatS {
		t.Fatalf("gaussian flatness (%g) should exceed sinusoid flatness (%g)", flatG, flatS)
	}
	if peakS < 1 {
		t.Fatalf("sinusoid should produce spectral peaks, got %g/window", peakS)
	}
	if peakU > peakS {
		t.Fatalf("uniform (%g) should not out-peak the sinusoid (%g)", peakU, peakS)
	}
	// The proposed mask needs both: spread well above the sinusoid's AND peaks.
	if flatX < 1.5*flatS {
		t.Fatalf("GS flatness (%g) too low vs sinusoid (%g)", flatX, flatS)
	}
	if peakX < 0.5 {
		t.Fatalf("GS should retain spectral peaks, got %g/window", peakX)
	}
}

func TestHoldDurations(t *testing.T) {
	// Parameters persist between 6 and 120 samples: level run lengths of
	// the uniform mask must fall in that range.
	g := NewUniformRandom(testBand(), DefaultHold(), 9)
	x := Generate(g, 20000)
	run := 1
	for i := 1; i < len(x); i++ {
		if x[i] == x[i-1] {
			run++
			continue
		}
		if run < 6 || run > 120 {
			t.Fatalf("hold duration %d outside [6,120]", run)
		}
		run = 1
	}
}

func TestSinusoidNyquistCap(t *testing.T) {
	// §V-B constraint 2: sinusoid frequency ≤ sampleHz/2. Verify no
	// spectral energy above Nyquist is aliased into implausible places by
	// checking the redrawn frequencies directly.
	s := NewSinusoid(testBand(), DefaultHold(), sampleHz, 11)
	for i := 0; i < 10000; i++ {
		s.Next()
		if s.freqHz > sampleHz/2 {
			t.Fatalf("sinusoid frequency %g above Nyquist", s.freqHz)
		}
	}
	g := NewGaussianSinusoid(testBand(), DefaultHold(), sampleHz, 11)
	for i := 0; i < 10000; i++ {
		g.Next()
		if g.freqHz > sampleHz/2 {
			t.Fatalf("GS frequency %g above Nyquist", g.freqHz)
		}
	}
}

func TestGenerateLength(t *testing.T) {
	if got := len(Generate(NewConstant(10), 17)); got != 17 {
		t.Fatalf("Generate length %d", got)
	}
}

func TestInvertedBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted band")
		}
	}()
	NewGaussianSinusoid(Band{Min: 95, Max: 40}, DefaultHold(), sampleHz, 1)
}
