// Package actuator models the three power-changing inputs that Maya
// actuates (§V): the DVFS level (cpufreq), the idle-injection level
// (Intel powerclamp), and the balloon-application level. Each input is a
// quantized knob with a legal range and step; the controller works in a
// normalized [0, 1] space and the knob translates between the two.
package actuator

import (
	"fmt"
	"math"
)

// Knob is a quantized actuator input.
type Knob struct {
	Name string
	Min  float64
	Max  float64
	Step float64
}

// NewKnob validates and returns a knob.
func NewKnob(name string, min, max, step float64) Knob {
	if max < min {
		panic(fmt.Sprintf("actuator: %s max %g < min %g", name, max, min))
	}
	if step < 0 {
		panic(fmt.Sprintf("actuator: %s negative step", name))
	}
	return Knob{Name: name, Min: min, Max: max, Step: step}
}

// Quantize clamps v to [Min, Max] and snaps it to the nearest legal step.
func (k Knob) Quantize(v float64) float64 {
	if v < k.Min {
		v = k.Min
	}
	if v > k.Max {
		v = k.Max
	}
	if k.Step == 0 {
		return v
	}
	n := math.Round((v - k.Min) / k.Step)
	q := k.Min + n*k.Step
	if q > k.Max {
		q -= k.Step
	}
	if q < k.Min {
		q = k.Min
	}
	return q
}

// Levels returns the number of legal settings.
func (k Knob) Levels() int {
	if k.Step == 0 {
		return 1
	}
	return int(math.Floor((k.Max-k.Min)/k.Step+1e-9)) + 1
}

// FromNorm maps a normalized value x in [0, 1] to a quantized knob setting.
// Values outside [0, 1] are clamped.
func (k Knob) FromNorm(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return k.Quantize(k.Min + x*(k.Max-k.Min))
}

// ToNorm maps a knob setting to [0, 1].
func (k Knob) ToNorm(v float64) float64 {
	if k.Max == k.Min { //nolint:maya/floateq degenerate-range guard; Max and Min are exact config values
		return 0
	}
	x := (v - k.Min) / (k.Max - k.Min)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return x
}

// Set bundles Maya's three inputs for one machine.
type Set struct {
	DVFS    Knob // core frequency in GHz
	Idle    Knob // forced-idle fraction
	Balloon Knob // balloon duty fraction
}

// StandardIdle returns the powerclamp-style idle knob: 0–48 % in 4 % steps
// (§V: "can be 0%-48% in steps of 4%").
func StandardIdle() Knob { return NewKnob("idle", 0, 0.48, 0.04) }

// StandardBalloon returns the balloon knob: 0–100 % in 10 % steps
// (§V: "can be 0%-100% in steps of 10%").
func StandardBalloon() Knob { return NewKnob("balloon", 0, 1.0, 0.10) }

// DVFSKnob returns a cpufreq-style ladder between min and max GHz with
// 0.1 GHz increments (§V).
func DVFSKnob(minGHz, maxGHz float64) Knob {
	return NewKnob("dvfs", minGHz, maxGHz, 0.1)
}

// Norms returns the normalized values of the three inputs as the vector
// ordering used throughout the controller: [dvfs, idle, balloon].
func (s Set) Norms(dvfs, idle, balloon float64) [3]float64 {
	return [3]float64{s.DVFS.ToNorm(dvfs), s.Idle.ToNorm(idle), s.Balloon.ToNorm(balloon)}
}

// FromNorms quantizes a normalized input vector into knob settings.
func (s Set) FromNorms(u [3]float64) (dvfs, idle, balloon float64) {
	return s.DVFS.FromNorm(u[0]), s.Idle.FromNorm(u[1]), s.Balloon.FromNorm(u[2])
}

// FromNormInfo is FromNorm plus a clip report: clipped is true when x lay
// outside [0, 1], i.e. the commanded value exceeded the knob's authority
// and was clamped before quantization. The telemetry layer counts these
// events; sustained clipping on a knob means the controller is asking for
// more range than the actuator has.
func (k Knob) FromNormInfo(x float64) (v float64, clipped bool) {
	clipped = x < 0 || x > 1
	return k.FromNorm(x), clipped
}

// FromNormsInfo quantizes like FromNorms and reports, per input, whether
// the normalized command was clipped to [0, 1]. It reads the set through
// a pointer: the engine calls it on every control decision, and a value
// receiver would copy all three knobs each time.
func (s *Set) FromNormsInfo(u [3]float64) (dvfs, idle, balloon float64, clipped [3]bool) {
	dvfs, clipped[0] = s.DVFS.FromNormInfo(u[0])
	idle, clipped[1] = s.Idle.FromNormInfo(u[1])
	balloon, clipped[2] = s.Balloon.FromNormInfo(u[2])
	return dvfs, idle, balloon, clipped
}
