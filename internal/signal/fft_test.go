package signal

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"github.com/maya-defense/maya/internal/rng"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func complexClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestFFTMatchesNaivePow2(t *testing.T) {
	r := rng.New(1)
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		if !complexClose(FFT(x), naiveDFT(x), 1e-8*float64(n)) {
			t.Fatalf("FFT mismatch at n=%d", n)
		}
	}
}

func TestFFTMatchesNaiveNonPow2(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{3, 5, 6, 7, 12, 100, 750} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		if !complexClose(FFT(x), naiveDFT(x), 1e-7*float64(n)) {
			t.Fatalf("Bluestein FFT mismatch at n=%d", n)
		}
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	f := func(seed uint64, ln uint8) bool {
		n := int(ln)%200 + 1
		r := rng.New(seed)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		y := IFFT(FFT(x))
		return complexClose(x, y, 1e-8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	r := rng.New(3)
	n := 128
	x := make([]complex128, n)
	y := make([]complex128, n)
	sum := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), 0)
		y[i] = complex(r.NormFloat64(), 0)
		sum[i] = x[i] + y[i]
	}
	fx, fy, fs := FFT(x), FFT(y), FFT(sum)
	for i := range fs {
		if cmplx.Abs(fs[i]-(fx[i]+fy[i])) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestParseval(t *testing.T) {
	r := rng.New(4)
	n := 512
	x := make([]float64, n)
	var timeEnergy float64
	for i := range x {
		x[i] = r.NormFloat64()
		timeEnergy += x[i] * x[i]
	}
	spec := FFTReal(x)
	var freqEnergy float64
	for _, c := range spec {
		freqEnergy += real(c)*real(c) + imag(c)*imag(c)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: time=%g freq=%g", timeEnergy, freqEnergy)
	}
}

func TestSpectrumSinusoidPeak(t *testing.T) {
	// A pure 5 Hz tone sampled at 50 Hz for 10 s must put its energy in the
	// bin at 5 Hz.
	sampleHz := 50.0
	n := 500
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 + 3*math.Sin(2*math.Pi*5*float64(i)/sampleHz)
	}
	freqs, mags := Spectrum(x, sampleHz)
	best := 0
	for i := range mags {
		if mags[i] > mags[best] {
			best = i
		}
	}
	if math.Abs(freqs[best]-5) > 0.2 {
		t.Fatalf("peak at %g Hz, want 5 Hz", freqs[best])
	}
	if math.Abs(mags[best]-3) > 0.1 {
		t.Fatalf("peak magnitude %g, want ~3 (amplitude)", mags[best])
	}
}

func TestSpectralSpreadAndPeaks(t *testing.T) {
	r := rng.New(5)
	n := 1000
	sampleHz := 50.0
	// White noise: a flat spectrum, no strong narrow peaks.
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = r.NormFloat64()
	}
	_, nm := Spectrum(noise, sampleHz)
	// Pure tone: a tonal spectrum with at least one peak.
	tone := make([]float64, n)
	for i := range tone {
		tone[i] = math.Sin(2 * math.Pi * 8 * float64(i) / sampleHz)
	}
	_, tm := Spectrum(tone, sampleHz)
	if SpectralFlatness(nm) < 5*SpectralFlatness(tm) {
		t.Fatalf("noise flatness %g should dwarf tone flatness %g", SpectralFlatness(nm), SpectralFlatness(tm))
	}
	if SpectralPeaks(tm) < 1 {
		t.Fatal("tone should register a spectral peak")
	}
}

// naiveOneSidedMags computes the one-sided amplitude spectrum of x (mean
// removed) from the O(n²) DFT with correct one-sided weighting: interior
// bins are doubled for their mirrored negative frequency, DC is not, and
// for even n neither is the Nyquist bin (it has no mirror).
func naiveOneSidedMags(x []float64) []float64 {
	n := len(x)
	mean := Mean(x)
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
	}
	spec := naiveDFT(c)
	half := n/2 + 1
	mags := make([]float64, half)
	for k := 0; k < half; k++ {
		mags[k] = cmplx.Abs(spec[k]) / float64(n) * 2
	}
	mags[0] /= 2
	if n%2 == 0 && n > 1 {
		mags[half-1] /= 2
	}
	return mags
}

func TestSpectrumNyquistNotDoubled(t *testing.T) {
	// A pure Nyquist tone A·(−1)^i at even n puts all its energy in the
	// single bin n/2; its one-sided amplitude there is A, not 2A. The
	// pre-fix Spectrum doubled this bin like an interior bin.
	const amp = 3.0
	n := 64
	x := make([]float64, n)
	for i := range x {
		if i%2 == 0 {
			x[i] = amp
		} else {
			x[i] = -amp
		}
	}
	_, mags := Spectrum(x, 100)
	nyq := mags[len(mags)-1]
	if math.Abs(nyq-amp) > 1e-9 {
		t.Fatalf("Nyquist bin amplitude %g, want %g (doubled would be %g)", nyq, amp, 2*amp)
	}
}

func TestSpectrumMatchesNaiveDFT(t *testing.T) {
	r := rng.New(21)
	for _, n := range []int{16, 17, 64, 63, 100, 101} { // even and odd lengths
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Normal(5, 2)
		}
		_, mags := Spectrum(x, 50)
		want := naiveOneSidedMags(x)
		if len(mags) != len(want) {
			t.Fatalf("n=%d: %d bins, want %d", n, len(mags), len(want))
		}
		for k := range mags {
			if math.Abs(mags[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %g want %g", n, k, mags[k], want[k])
			}
		}
	}
}

func TestSpectrumOneSidedParseval(t *testing.T) {
	// Parseval for the one-sided amplitude spectrum: the signal's AC power
	// equals mags[0]² + Σ interior mags²/2, with the even-n Nyquist bin
	// contributing its full square (it is a single unpaired bin). The
	// pre-fix doubling inflated the even-n Nyquist term 4x.
	r := rng.New(22)
	for _, n := range []int{32, 33, 128, 129} {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Normal(10, 3)
		}
		mean := Mean(x)
		power := 0.0
		for _, v := range x {
			power += (v - mean) * (v - mean)
		}
		power /= float64(n)

		_, mags := Spectrum(x, 50)
		spec := mags[0] * mags[0]
		last := len(mags) - 1
		for k := 1; k < len(mags); k++ {
			w := 0.5
			if k == last && n%2 == 0 {
				w = 1 // unpaired Nyquist bin
			}
			spec += w * mags[k] * mags[k]
		}
		if math.Abs(power-spec) > 1e-9*power {
			t.Fatalf("n=%d: one-sided Parseval violated: time power %g, spectral power %g", n, power, spec)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := FFT(nil); len(got) != 0 {
		t.Fatal("FFT(nil) should be empty")
	}
	one := []complex128{complex(3, 1)}
	got := FFT(one)
	if len(got) != 1 || got[0] != one[0] {
		t.Fatalf("FFT of singleton: %v", got)
	}
}
