package sim

import (
	"math"

	"github.com/maya-defense/maya/internal/rng"
)

// PowerSensor is the measurement interface shared by the defense controller
// and the attacker. Observe is fed once per simulator tick; ReadW returns
// the average power since the previous ReadW, as that sensor would report
// it. Both the defense (every 20 ms) and the attacker (at their own
// interval) read through sensors of this kind.
//
// Contract (read-after-observe semantics): a ReadW call reports power
// averaged over exactly the ticks Observed since the previous ReadW, and
// a ReadW with no intervening Observe (an empty window) returns 0.
// Implementations differ in WHERE that window state lives — RAPLSensor's
// counter lives in the machine, so its Observe is a no-op and the window
// is delimited by the machine's tick/energy deltas, while OutletSensor and
// EMSensor accumulate inside Observe — but callers must not depend on the
// difference: always Observe every tick of the window, then ReadW once.
// TestSensorReadAfterObserveContract enforces these semantics for both
// sensor families.
type PowerSensor interface {
	Observe(r StepResult)
	ReadW() float64
}

// RAPLSensor models Intel's Running Average Power Limit energy counter
// (§V: "measures the power ... using RAPL every 20 ms"). The counter
// is quantized to the RAPL LSB and updates every tick; a read reports
// ΔE/Δt since the previous read. Reads more frequent than the counter
// update granularity see quantization noise, which is why the paper's
// defense samples no faster than 20 ms.
type RAPLSensor struct {
	m     *Machine
	lastE float64
	lastT int64
}

// NewRAPLSensor attaches a RAPL reader to a machine.
func NewRAPLSensor(m *Machine) *RAPLSensor {
	return &RAPLSensor{m: m, lastE: m.EnergyJ(), lastT: m.Tick()}
}

// Observe implements PowerSensor (the RAPL counter lives in the machine, so
// there is nothing to accumulate here).
func (s *RAPLSensor) Observe(StepResult) {}

// ReadW returns the average power since the previous read.
func (s *RAPLSensor) ReadW() float64 {
	e := s.m.EnergyJ()
	t := s.m.Tick()
	dt := float64(t-s.lastT) * s.m.cfg.TickSeconds
	if dt <= 0 {
		return 0
	}
	p := (e - s.lastE) / dt
	s.lastE, s.lastT = e, t
	if p < 0 {
		p = 0
	}
	return p
}

// OutletSensor models the AC electrical-outlet tap of §VI-A attack 3: a
// multimeter (Yokogawa WT310) measuring whole-system wall power, reporting
// RMS values computed over three 60 Hz AC cycles (50 ms). The observed
// power includes PSU losses, the rest-of-system load, and line ripple —
// a noisier, system-level view compared to RAPL.
type OutletSensor struct {
	sumSq      float64
	n          int
	tickAngle  float64 // accumulated AC phase
	angleStep  float64 // AC phase advance per tick
	ripple     float64 // relative double-line-frequency ripple amplitude
	noise      *rng.Stream
	sensorVarW float64 // instrument noise stddev in watts
	// psuState is the bulk-capacitor low-pass state: the PSU's input
	// current follows load changes with a time constant set by its output
	// capacitance, so fast power swings are attenuated before they reach
	// the wall (a real effect that limits sub-second leakage through
	// outlet taps). psuA is its per-tick coefficient.
	psuState float64
	psuA     float64
	// gridState is the Ornstein-Uhlenbeck grid-noise process: an outlet
	// shares its power network with other loads (the attack of Shao et al.
	// works *across a building*), so the receiver sees a nonstationary
	// watts-scale noise floor on top of the victim's draw. Each tick it
	// decays by gridDecay of itself and takes a gridKick-scaled normal
	// draw.
	gridState float64
	gridDecay float64
	gridKick  float64
}

// NewOutletSensor builds an outlet tap for machines with the given config.
func NewOutletSensor(cfg Config, seed uint64) *OutletSensor {
	const (
		psuTau  = 0.12 // PSU bulk-capacitor time constant, s
		gridTau = 2.0  // grid-noise reversion time, s
		gridStd = 0.7  // grid-noise stationary stddev, W
	)
	dt := cfg.TickSeconds
	return &OutletSensor{
		angleStep:  2 * math.Pi * 120 * dt,
		ripple:     0.02,
		noise:      rng.NewNamed(seed, "sim/outlet/"+cfg.Name),
		sensorVarW: 0.15,
		psuA:       min(dt/psuTau, 1),
		gridDecay:  dt / gridTau,
		gridKick:   gridStd * math.Sqrt(2*dt/gridTau),
	}
}

// Observe implements PowerSensor: it accumulates one tick of wall power
// with PSU smoothing and 120 Hz rectifier ripple.
func (s *OutletSensor) Observe(r StepResult) {
	s.tickAngle += s.angleStep
	if s.tickAngle > 2*math.Pi {
		s.tickAngle -= 2 * math.Pi
	}
	if s.psuState == 0 {
		s.psuState = r.WallW
	}
	s.psuState += s.psuA * (r.WallW - s.psuState)
	// Grid noise: mean-reverting wander of the shared network's load.
	s.gridState += -s.gridDecay*s.gridState + s.gridKick*s.noise.NormFloat64()
	w := (s.psuState + s.gridState) * (1 + s.ripple*math.Sin(s.tickAngle))
	s.sumSq += w * w
	s.n++
}

// ReadW returns the RMS wall power since the previous read, plus
// instrument noise.
func (s *OutletSensor) ReadW() float64 {
	if s.n == 0 {
		return 0
	}
	rms := math.Sqrt(s.sumSq / float64(s.n))
	s.sumSq, s.n = 0, 0
	rms += s.sensorVarW * s.noise.NormFloat64()
	if rms < 0 {
		rms = 0
	}
	return rms
}

// EMSensor models a near-field electromagnetic probe (§II-A: attackers use
// antennas, and EM emissions "are related to the computer's power, and
// leave similarly-analyzable patterns"). The dominant EM emission tracks
// switching-current *changes*: the probe output is modeled as the mean
// |ΔP| per tick over the read window, plus ambient RF noise. Because the
// signal derives entirely from power, obfuscating power obfuscates this
// channel too.
type EMSensor struct {
	cfg      Config
	couple   float64 // probe coupling (nominal µV per W of tick-to-tick change)
	noise    *rng.Stream
	noiseUV  float64
	lastP    float64
	havePrev bool
	sumAbs   float64
	n        int
}

// NewEMSensor builds an EM probe near a machine of the given config.
func NewEMSensor(cfg Config, seed uint64) *EMSensor {
	return &EMSensor{
		cfg:     cfg,
		couple:  10,
		noise:   rng.NewNamed(seed, "sim/em/"+cfg.Name),
		noiseUV: 0.4,
	}
}

// Observe implements PowerSensor: it accumulates the rectified power
// derivative for one tick.
func (s *EMSensor) Observe(r StepResult) {
	if s.havePrev {
		s.sumAbs += math.Abs(r.PowerW - s.lastP)
	}
	s.lastP = r.PowerW
	s.havePrev = true
	s.n++
}

// ReadW returns the probe's averaged output since the previous read in
// nominal µV (the PowerSensor interface's unit label is incidental;
// attackers only use relative structure).
func (s *EMSensor) ReadW() float64 {
	if s.n == 0 {
		return 0
	}
	v := s.couple*s.sumAbs/float64(s.n) + s.noiseUV*s.noise.NormFloat64()
	s.sumAbs, s.n = 0, 0
	if v < 0 {
		v = 0
	}
	return v
}
