// Package fault provides deterministic, seed-reproducible fault injection
// for the simulated substrate. The paper's controller runs on real machines
// where sensors glitch, RAPL energy counters wrap, and knobs apply late or
// get stuck (§V, §VI); this package reproduces those disturbances in the
// simulator so the control loop's graceful degradation can be exercised and
// regression-tested.
//
// A Plan is a declarative description of which faults to inject and how
// often. An Injector realizes a plan for one run: it owns per-channel
// rng.ChildSeed-derived streams, so two runs with the same (plan, seed)
// replay bit-for-bit regardless of how many other runs execute concurrently.
// The empty Plan injects nothing and leaves every wrapped component's
// behaviour byte-identical to the unwrapped one.
//
// Fault channels:
//
//   - sensor: dropped readings (0 W), additive spikes, non-finite readings
//     (NaN/±Inf), and stuck-at-last-value windows, applied by FaultySensor
//     on top of any sim.PowerSensor;
//   - counter: RAPL energy-counter wraparound (sim.Machine.SetEnergyWrap),
//     which an un-hardened reader observes as an impossible negative energy
//     delta;
//   - actuator: dropped commands, stuck knobs, and scaled actuation lag,
//     applied through sim.Machine.SetInputFilter / SetLagScale;
//   - timing: missed controller deadlines (the previous command stays in
//     force) and jittered wake-ups (the decision consumes a stale sample),
//     applied by wrapping the sim.Policy.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
)

// SensorPlan configures measurement-path faults. All probabilities are
// per-read; zero values disable the channel.
type SensorPlan struct {
	// DropoutProb is the probability a reading is lost and reported as 0 W
	// (a failed RAPL MSR read / hwmon timeout).
	DropoutProb float64 `json:"dropout_prob,omitempty"`
	// SpikeProb is the probability a reading carries an additive spike of
	// ±SpikeMagW (bus glitch, cross-talk).
	SpikeProb float64 `json:"spike_prob,omitempty"`
	// SpikeMagW is the spike magnitude in watts.
	SpikeMagW float64 `json:"spike_mag_w,omitempty"`
	// NonFiniteProb is the probability a reading is NaN or ±Inf (driver
	// bug, torn read).
	NonFiniteProb float64 `json:"non_finite_prob,omitempty"`
	// StuckProb is the probability a read starts a stuck window during
	// which the sensor repeats its last value for StuckReads reads.
	StuckProb float64 `json:"stuck_prob,omitempty"`
	// StuckReads is the length of a stuck window in reads.
	StuckReads int `json:"stuck_reads,omitempty"`
}

// CounterPlan configures energy-counter faults.
type CounterPlan struct {
	// WrapJ makes the machine's RAPL-style energy counter wrap modulo this
	// many joules (0 disables). Real counters are finite-width (a 32-bit
	// Intel counter wraps every ~65 kJ); small values here compress hours
	// of wall time into seconds of simulation.
	WrapJ float64 `json:"wrap_j,omitempty"`
}

// ActuatorPlan configures actuation-path faults. Probabilities are
// per-command (one command per control period).
type ActuatorPlan struct {
	// DropProb is the probability a command is silently dropped and the
	// previous command stays in force.
	DropProb float64 `json:"drop_prob,omitempty"`
	// StuckProb is the probability a command starts a stuck window during
	// which one randomly chosen knob is frozen at its current value for
	// StuckTicks simulator ticks.
	StuckProb float64 `json:"stuck_prob,omitempty"`
	// StuckTicks is the length of a stuck window in ticks.
	StuckTicks int `json:"stuck_ticks,omitempty"`
	// LagScale multiplies every actuation time constant (values > 1 mean
	// knobs apply late; 0 or 1 is nominal).
	LagScale float64 `json:"lag_scale,omitempty"`
}

// TimingPlan configures controller-scheduling faults. Probabilities are
// per-wakeup.
type TimingPlan struct {
	// MissProb is the probability a controller deadline is missed entirely:
	// the decision does not run and the previous inputs stay in force.
	MissProb float64 `json:"miss_prob,omitempty"`
	// StaleProb is the probability a wakeup is jittered enough that the
	// decision consumes the previous period's sample instead of the
	// current one.
	StaleProb float64 `json:"stale_prob,omitempty"`
}

// Plan is a composable description of the faults to inject into one run.
// The zero value injects nothing.
type Plan struct {
	// Name labels the plan in reports and test tables.
	Name     string       `json:"name,omitempty"`
	Sensor   SensorPlan   `json:"sensor,omitempty"`
	Counter  CounterPlan  `json:"counter,omitempty"`
	Actuator ActuatorPlan `json:"actuator,omitempty"`
	Timing   TimingPlan   `json:"timing,omitempty"`
}

// Empty reports whether the plan injects no faults at all (the name is
// ignored). Wrapping components with an empty plan is guaranteed not to
// perturb behaviour. Plan fields are exact config values, never computed,
// so zero tests are exact by construction.
func (p Plan) Empty() bool {
	s, c, a, t := p.Sensor, p.Counter, p.Actuator, p.Timing
	return s.DropoutProb == 0 && s.SpikeProb == 0 && s.NonFiniteProb == 0 && s.StuckProb == 0 &&
		c.WrapJ == 0 &&
		a.DropProb == 0 && a.StuckProb == 0 && (a.LagScale == 0 || a.LagScale == 1) && //nolint:maya/floateq exact zero/one test of config values
		t.MissProb == 0 && t.StaleProb == 0
}

// Validate checks that probabilities are in [0, 1] and magnitudes are
// non-negative. Fields are checked in a fixed order so the reported
// violation (and therefore the error text) is the same on every run.
func (p Plan) Validate() error {
	probs := []struct {
		name string
		v    float64
	}{
		{"sensor.dropout_prob", p.Sensor.DropoutProb},
		{"sensor.spike_prob", p.Sensor.SpikeProb},
		{"sensor.non_finite_prob", p.Sensor.NonFiniteProb},
		{"sensor.stuck_prob", p.Sensor.StuckProb},
		{"actuator.drop_prob", p.Actuator.DropProb},
		{"actuator.stuck_prob", p.Actuator.StuckProb},
		{"timing.miss_prob", p.Timing.MissProb},
		{"timing.stale_prob", p.Timing.StaleProb},
	}
	for _, pr := range probs {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("fault: %s %g outside [0, 1]", pr.name, pr.v)
		}
	}
	switch {
	case p.Sensor.SpikeMagW < 0:
		return fmt.Errorf("fault: sensor.spike_mag_w negative")
	case p.Sensor.StuckReads < 0:
		return fmt.Errorf("fault: sensor.stuck_reads negative")
	case p.Counter.WrapJ < 0:
		return fmt.Errorf("fault: counter.wrap_j negative")
	case p.Actuator.StuckTicks < 0:
		return fmt.Errorf("fault: actuator.stuck_ticks negative")
	case p.Actuator.LagScale < 0:
		return fmt.Errorf("fault: actuator.lag_scale negative")
	}
	return nil
}

// WriteJSON serializes the plan, so users can start from a canned plan
// (`mayactl dump-fault-plan <name>`), tune it, and load the result with
// `mayactl -faults plan.json`.
func (p Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// ReadPlanJSON parses and validates a fault plan.
func ReadPlanJSON(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("fault: plan decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Plans returns the canned fault plans used by the robustness regression
// harness, the `faults` experiment sweep, and `mayactl -faults <name>`.
// Rates are aggressive relative to real hardware so that short simulated
// runs exercise many fault events.
func Plans() []Plan {
	return []Plan{
		{
			Name: "sensor-dropout",
			Sensor: SensorPlan{
				DropoutProb: 0.05,
				StuckProb:   0.01, StuckReads: 5,
			},
		},
		{
			Name: "sensor-spike",
			Sensor: SensorPlan{
				SpikeProb: 0.05, SpikeMagW: 60,
				NonFiniteProb: 0.01,
			},
		},
		{
			Name:    "rapl-wrap",
			Counter: CounterPlan{WrapJ: 1.5},
		},
		{
			Name: "actuator-stuck",
			Actuator: ActuatorPlan{
				DropProb:  0.05,
				StuckProb: 0.02, StuckTicks: 400,
				LagScale: 3,
			},
		},
		{
			Name:   "deadline-miss",
			Timing: TimingPlan{MissProb: 0.10, StaleProb: 0.10},
		},
		{
			Name: "kitchen-sink",
			Sensor: SensorPlan{
				DropoutProb: 0.02,
				SpikeProb:   0.02, SpikeMagW: 60,
				NonFiniteProb: 0.005,
				StuckProb:     0.005, StuckReads: 5,
			},
			Counter: CounterPlan{WrapJ: 3},
			Actuator: ActuatorPlan{
				DropProb:  0.02,
				StuckProb: 0.01, StuckTicks: 200,
				LagScale: 2,
			},
			Timing: TimingPlan{MissProb: 0.05, StaleProb: 0.05},
		},
	}
}

// PlanByName returns the canned plan with the given name.
func PlanByName(name string) (Plan, bool) {
	for _, p := range Plans() {
		if p.Name == name {
			return p, true
		}
	}
	return Plan{}, false
}

// PlanNames lists the canned plan names in Plans() order.
func PlanNames() []string {
	ps := Plans()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
