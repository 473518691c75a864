// Package mask implements Maya's mask generators: the target power
// functions the controller makes the machine follow (§IV-C, Table II,
// Fig 4). An effective mask must change its mean and variance in the time
// domain and produce both spread and peaks in the frequency domain; of the
// standard signals the paper examines, only the Gaussian Sinusoid (Eq. 4)
// has all four properties, and it is the proposed mask.
//
// All generators emit targets in watts inside a configured band whose upper
// end must not exceed the machine's TDP (§V-B constraint 1), and re-draw
// their parameters from a secret random stream — the property that prevents
// attackers who know the algorithm from reproducing the mask (§IV, "Why
// Maya works").
package mask

import (
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/rng"
)

// Generator produces a target power sequence, one sample per control period.
type Generator interface {
	// Name identifies the mask family.
	Name() string
	// Next returns the next target power in watts.
	Next() float64
	// Reset restarts the sequence with a fresh parameter stream derived
	// from seed (a new seed yields an uncorrelated mask — every run of an
	// application is masked differently).
	Reset(seed uint64)
}

// Band is the allowed target power range. Max must stay at or below the
// machine's TDP; Min should be achievable at the lowest-power actuator
// settings.
type Band struct {
	Min, Max float64
}

// Width returns Max − Min.
func (b Band) Width() float64 { return b.Max - b.Min }

// Mid returns the band midpoint.
func (b Band) Mid() float64 { return (b.Min + b.Max) / 2 }

// Clamp limits v to the band.
func (b Band) Clamp(v float64) float64 {
	return math.Max(b.Min, math.Min(b.Max, v))
}

// Contains reports whether v lies inside the band (inclusive). Property
// tests use it to assert mask targets never leave the designed range —
// in particular that they respect the TDP cap the band's Max encodes.
func (b Band) Contains(v float64) bool { return v >= b.Min && v <= b.Max }

func (b Band) validate() {
	if b.Max <= b.Min {
		panic(fmt.Sprintf("mask: empty band [%g, %g]", b.Min, b.Max))
	}
}

// HoldRange is the paper's Nhold: once drawn, mask parameters persist for a
// uniformly random number of samples in [Lo, Hi] (§V-B: 6 to 120).
type HoldRange struct {
	Lo, Hi int
}

// DefaultHold returns the paper's Nhold range of 6–120 samples.
func DefaultHold() HoldRange { return HoldRange{Lo: 6, Hi: 120} }

// Draw samples a hold duration from the range.
func (h HoldRange) Draw(r *rng.Stream) int {
	if h.Hi < h.Lo {
		panic("mask: hold range inverted")
	}
	return r.IntRange(h.Lo, h.Hi)
}

// Constant holds the target at a fixed level (Table II row 1): no change in
// either domain. Used by the Maya Constant design of Table V.
type Constant struct {
	Level float64
}

// NewConstant returns a constant mask at the given level.
func NewConstant(level float64) *Constant { return &Constant{Level: level} }

// Name implements Generator.
func (c *Constant) Name() string { return "constant" }

// Next implements Generator.
func (c *Constant) Next() float64 { return c.Level }

// Reset implements Generator.
func (c *Constant) Reset(uint64) {}

// UniformRandom draws a level uniformly from the band and holds it for a
// random duration (Table II row 2): changes the mean but not the variance;
// spectral spread without peaks.
type UniformRandom struct {
	band Band
	hold HoldRange
	r    *rng.Stream
	left int
	cur  float64
}

// NewUniformRandom returns a uniformly random step mask.
func NewUniformRandom(band Band, hold HoldRange, seed uint64) *UniformRandom {
	band.validate()
	u := &UniformRandom{band: band, hold: hold}
	u.Reset(seed)
	return u
}

// Name implements Generator.
func (u *UniformRandom) Name() string { return "uniform" }

// Reset implements Generator.
func (u *UniformRandom) Reset(seed uint64) {
	u.r = rng.NewNamed(seed, "mask/uniform")
	u.left = 0
}

// Next implements Generator.
func (u *UniformRandom) Next() float64 {
	if u.left <= 0 {
		u.cur = u.r.Uniform(u.band.Min, u.band.Max)
		u.left = u.hold.Draw(u.r)
	}
	u.left--
	return u.cur
}

// Gaussian samples targets from a normal distribution whose mean and
// variance are re-drawn each hold period (Table II row 3): mean and
// variance change; spectrum spread, no peaks.
type Gaussian struct {
	band  Band
	hold  HoldRange
	r     *rng.Stream
	left  int
	mu    float64
	sigma float64
}

// NewGaussian returns a changing-parameter Gaussian mask.
func NewGaussian(band Band, hold HoldRange, seed uint64) *Gaussian {
	band.validate()
	g := &Gaussian{band: band, hold: hold}
	g.Reset(seed)
	return g
}

// Name implements Generator.
func (g *Gaussian) Name() string { return "gaussian" }

// Reset implements Generator.
func (g *Gaussian) Reset(seed uint64) {
	g.r = rng.NewNamed(seed, "mask/gaussian")
	g.left = 0
}

// Next implements Generator.
func (g *Gaussian) Next() float64 {
	if g.left <= 0 {
		w := g.band.Width()
		g.mu = g.r.Uniform(g.band.Min+0.15*w, g.band.Max-0.15*w)
		g.sigma = g.r.Uniform(0.02*w, 0.15*w)
		g.left = g.hold.Draw(g.r)
	}
	g.left--
	return g.band.Clamp(g.r.Normal(g.mu, g.sigma))
}

// Sinusoid generates a sinusoid whose frequency, amplitude, and offset are
// re-drawn each hold period (Table II row 4): mean and variance change;
// sharp spectral peaks without spread — filterable, hence insufficient
// alone.
type Sinusoid struct {
	band     Band
	hold     HoldRange
	sampleHz float64
	// FreqLoHz and FreqHiHz bound the drawn frequency (capped at Nyquist);
	// defaults match the GaussianSinusoid so the Table II ablation compares
	// like with like.
	FreqLoHz, FreqHiHz float64
	r                  *rng.Stream
	left               int
	offset             float64
	amp                float64
	freqHz             float64
	phase              float64
	t                  float64
}

// NewSinusoid returns a changing-parameter sinusoid mask for a control loop
// sampling at sampleHz (the paper's loop: 50 Hz).
func NewSinusoid(band Band, hold HoldRange, sampleHz float64, seed uint64) *Sinusoid {
	band.validate()
	if sampleHz <= 0 {
		panic("mask: non-positive sample rate")
	}
	s := &Sinusoid{band: band, hold: hold, sampleHz: sampleHz, FreqLoHz: 0.3, FreqHiHz: 2.5}
	s.Reset(seed)
	return s
}

// Name implements Generator.
func (s *Sinusoid) Name() string { return "sinusoid" }

// Reset implements Generator.
func (s *Sinusoid) Reset(seed uint64) {
	s.r = rng.NewNamed(seed, "mask/sinusoid")
	s.left = 0
	s.t = 0
}

func (s *Sinusoid) redraw() {
	w := s.band.Width()
	s.amp = s.r.Uniform(0.10*w, 0.35*w)
	s.offset = s.r.Uniform(s.band.Min+s.amp, s.band.Max-s.amp)
	// Nyquist constraint (§V-B): the sinusoid frequency cannot exceed half
	// the control sampling rate (25 Hz for the 20 ms loop).
	fHi := s.FreqHiHz
	if nyq := s.sampleHz / 2; fHi > nyq {
		fHi = nyq
	}
	s.freqHz = s.r.Uniform(s.FreqLoHz, fHi)
	// Keep the waveform continuous across redraws where possible by
	// preserving the running phase.
	s.left = s.hold.Draw(s.r)
}

// Next implements Generator.
func (s *Sinusoid) Next() float64 {
	if s.left <= 0 {
		s.redraw()
	}
	s.left--
	s.phase += 2 * math.Pi * s.freqHz / s.sampleHz
	if s.phase > 2*math.Pi {
		s.phase -= 2 * math.Pi
	}
	s.t++
	return s.band.Clamp(s.offset + s.amp*math.Sin(s.phase))
}

// GaussianSinusoid is the proposed mask (Eq. 4): the sum of the changing
// sinusoid and changing Gaussian noise,
//
//	[Offset + Amp·sin(2π·T/Freq)] + Noise(µ, σ)
//
// with all five parameters re-drawn every Nhold samples, subject to the TDP
// cap and the Nyquist frequency limit. It changes mean and variance in time
// and produces both spread and peaks in the spectrum — the full Table II
// property set.
type GaussianSinusoid struct {
	band     Band
	hold     HoldRange
	sampleHz float64

	// FreqLoHz and FreqHiHz bound the drawn sinusoid frequency. FreqHiHz is
	// further capped at Nyquist (§V-B constraint 2). The default upper
	// bound is a small multiple of the closed loop's bandwidth: a mask the
	// controller cannot follow would leave the emitted targets — not the
	// measured power — carrying the obfuscation.
	FreqLoHz, FreqHiHz float64
	// SigmaHiFrac bounds the drawn noise σ as a fraction of the band width.
	SigmaHiFrac float64

	r      *rng.Stream
	left   int
	offset float64
	amp    float64
	freqHz float64
	mu     float64
	sigma  float64
	phase  float64
	// shift is a per-run offset bias: without it, every run's long-term
	// mean converges to the band center, so a sub-watt app-dependent
	// tracking bias would become the dominant surviving fingerprint.
	// Randomizing the per-run mean drowns that residual.
	shift float64
}

// NewGaussianSinusoid returns the proposed Maya GS mask.
func NewGaussianSinusoid(band Band, hold HoldRange, sampleHz float64, seed uint64) *GaussianSinusoid {
	band.validate()
	if sampleHz <= 0 {
		panic("mask: non-positive sample rate")
	}
	g := &GaussianSinusoid{
		band: band, hold: hold, sampleHz: sampleHz,
		FreqLoHz: 0.3, FreqHiHz: 2.5, SigmaHiFrac: 0.08,
	}
	g.Reset(seed)
	return g
}

// Name implements Generator.
func (g *GaussianSinusoid) Name() string { return "gaussian-sinusoid" }

// Reset implements Generator.
func (g *GaussianSinusoid) Reset(seed uint64) {
	g.r = rng.NewNamed(seed, "mask/gs")
	g.left = 0
	g.phase = 0
	g.shift = g.r.Uniform(-0.10, 0.10) * g.band.Width()
}

func (g *GaussianSinusoid) redraw() {
	w := g.band.Width()
	g.amp = g.r.Uniform(0.10*w, 0.30*w)
	g.mu = g.r.Uniform(-0.05*w, 0.05*w)
	g.sigma = g.r.Uniform(0.02*w, g.SigmaHiFrac*w)
	// Offset leaves room for the sinusoid swing plus noise so the TDP cap
	// (band.Max) is respected without persistent clipping.
	margin := g.amp + 2*g.sigma
	lo := g.band.Min + margin
	hi := g.band.Max - margin
	if hi <= lo {
		g.offset = g.band.Mid()
	} else {
		g.offset = signalClamp(g.r.Uniform(lo, hi)+g.shift, lo, hi)
	}
	fHi := g.FreqHiHz
	if nyq := g.sampleHz / 2; fHi > nyq {
		fHi = nyq
	}
	g.freqHz = g.r.Uniform(g.FreqLoHz, fHi)
	g.left = g.hold.Draw(g.r)
}

// Next implements Generator.
func (g *GaussianSinusoid) Next() float64 {
	if g.left <= 0 {
		g.redraw()
	}
	g.left--
	g.phase += 2 * math.Pi * g.freqHz / g.sampleHz
	if g.phase > 2*math.Pi {
		g.phase -= 2 * math.Pi
	}
	v := g.offset + g.amp*math.Sin(g.phase) + g.r.Normal(g.mu, g.sigma)
	return g.band.Clamp(v)
}

// signalClamp limits v to [lo, hi] (local helper; mask cannot import
// signal without a cycle risk, and the operation is trivial).
func signalClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Generate draws n samples from a generator into a new slice.
func Generate(g Generator, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
