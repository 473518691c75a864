// Package signal provides the signal-processing substrate used by both the
// attacker pipeline and the evaluation harness: FFT and magnitude spectra
// (the frequency-domain view of masks and power traces, Fig 4), summary
// statistics (the box plots of Fig 7/13), quantization and one-hot encoding
// (the MLP input pipeline of §VI-A), and trace averaging/correlation
// (§VII-B).
package signal

import (
	"math"
	"math/cmplx"
)

// FFT computes the discrete Fourier transform of x. Power-of-two lengths
// use an in-place iterative radix-2 Cooley-Tukey; other lengths use
// Bluestein's chirp-z algorithm so that any trace length is accepted.
// The transform executes on a cached Plan for len(x), so repeated
// same-size calls reuse precomputed tables and scratch buffers.
func FFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	p, e := acquirePlan(n)
	p.Transform(out, x)
	releasePlan(e, p)
	return out
}

// IFFT computes the inverse DFT (normalized by 1/n).
func IFFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	p, e := acquirePlan(n)
	p.Inverse(out, x)
	releasePlan(e, p)
	return out
}

// FFTReal transforms a real signal and returns the full complex spectrum.
func FFTReal(x []float64) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	if n == 0 {
		return out
	}
	p, e := acquirePlan(n)
	p.TransformReal(out, x)
	releasePlan(e, p)
	return out
}

// Spectrum computes the one-sided magnitude spectrum of a real signal
// sampled at sampleHz, after removing the DC mean (as the paper's Fig 4
// does implicitly: the plots show activity structure, not the offset).
// It returns the frequencies of each bin and the magnitudes, covering
// [0, sampleHz/2].
func Spectrum(x []float64, sampleHz float64) (freqs, mags []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	mean := Mean(x)
	centered := make([]float64, n)
	for i, v := range x {
		centered[i] = v - mean
	}
	spec := FFTReal(centered)
	half := n/2 + 1
	freqs = make([]float64, half)
	mags = make([]float64, half)
	for k := 0; k < half; k++ {
		freqs[k] = float64(k) * sampleHz / float64(n)
		mags[k] = cmplx.Abs(spec[k]) / float64(n) * 2
	}
	// One-sided doubling accounts for the mirrored negative-frequency bins.
	// DC has no mirror, and for even n neither does the Nyquist bin — the
	// spectrum of a real signal puts all Nyquist energy in the single bin
	// n/2, so doubling it would overstate that frequency by 2x.
	mags[0] /= 2
	if n%2 == 0 && n > 1 {
		mags[half-1] /= 2
	}
	return freqs, mags
}

// SpectralFlatness returns the Wiener entropy of a magnitude spectrum
// (excluding DC): the ratio of the geometric to the arithmetic mean of the
// power bins. White, spread spectra score near 1; tonal spectra (isolated
// sinusoid peaks) score near 0. This is the quantitative form of Table II's
// "Spread" column, evaluated per analysis window as in Fig 4.
func SpectralFlatness(mags []float64) float64 {
	if len(mags) <= 1 {
		return 0
	}
	m := mags[1:]
	const eps = 1e-12
	logSum, sum, peak := 0.0, 0.0, 0.0
	for _, v := range m {
		p := v*v + eps
		logSum += math.Log(p)
		sum += p
		if v > peak {
			peak = v
		}
	}
	if peak < 1e-9 {
		return 0 // an (almost) silent spectrum has no meaningful flatness
	}
	n := float64(len(m))
	return math.Exp(logSum/n) / (sum / n)
}

// SpectralPeaks counts prominent narrow peaks in a magnitude spectrum:
// bins that are local maxima, exceed 4x the median magnitude, and exceed
// 25% of the global peak. Sinusoidal masks create such peaks (Table II's
// "Peaks" column); noise does not.
func SpectralPeaks(mags []float64) int {
	if len(mags) < 4 {
		return 0
	}
	m := mags[1:] // skip DC
	med := Quantile(m, 0.5)
	peak := 0.0
	for _, v := range m {
		if v > peak {
			peak = v
		}
	}
	if peak < 1e-9 {
		return 0 // numerical residue on a silent spectrum is not a peak
	}
	count := 0
	for i := 1; i < len(m)-1; i++ {
		if m[i] > m[i-1] && m[i] >= m[i+1] && m[i] > 4*med && m[i] > 0.25*peak {
			count++
		}
	}
	return count
}
