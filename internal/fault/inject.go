package fault

import (
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
)

// Fixed child indices for the per-channel streams. Each channel owns an
// independent stream so that, e.g., raising the sensor fault rate never
// shifts which actuator commands are dropped.
const (
	sensorChannel = iota
	actuatorChannel
	timingChannel
)

// injectorDomain separates the injector's seed derivation from other users
// of rng.ChildSeed on the same run seed.
const injectorDomain = 0xfa171 // "FAULT"

// Stats counts the faults an injector actually fired, per channel. The
// regression harness uses them to prove a plan exercised what it claims to.
type Stats struct {
	SensorDropouts  uint64
	SensorSpikes    uint64
	SensorNonFinite uint64
	SensorStuck     uint64 // reads served from a stuck window
	CommandDrops    uint64
	KnobStuck       uint64 // commands altered by a stuck window
	DeadlineMisses  uint64
	StaleSamples    uint64
}

// Total sums all fired faults.
func (s Stats) Total() uint64 {
	return s.SensorDropouts + s.SensorSpikes + s.SensorNonFinite + s.SensorStuck +
		s.CommandDrops + s.KnobStuck + s.DeadlineMisses + s.StaleSamples
}

func (s Stats) String() string {
	return fmt.Sprintf("sensor{drop=%d spike=%d nonfinite=%d stuck=%d} actuator{drop=%d stuck=%d} timing{miss=%d stale=%d}",
		s.SensorDropouts, s.SensorSpikes, s.SensorNonFinite, s.SensorStuck,
		s.CommandDrops, s.KnobStuck, s.DeadlineMisses, s.StaleSamples)
}

// Metrics instruments an injector's fault channels. Attach with
// Injector.SetMetrics; a nil injector metrics keeps injection
// un-instrumented (the Stats counters always run).
type Metrics struct {
	SensorFaults   *telemetry.Counter
	ActuatorFaults *telemetry.Counter
	TimingFaults   *telemetry.Counter
}

// NewMetrics registers the injected-fault counters.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		SensorFaults:   reg.Counter("maya_fault_sensor_injected_total", "sensor faults injected"),
		ActuatorFaults: reg.Counter("maya_fault_actuator_injected_total", "actuator faults injected"),
		TimingFaults:   reg.Counter("maya_fault_timing_injected_total", "controller timing faults injected"),
	}
}

// Injector realizes a Plan for one run. It is not safe for concurrent use:
// like the machine and the engine, each run owns its injector. Runs with
// the same (plan, seed) replay bit-for-bit.
type Injector struct {
	plan Plan

	sensorR, actR, timR *rng.Stream

	// Actuator stuck window: knob index frozen at a value until stuckUntil.
	stuckKnob  int
	stuckVal   float64
	stuckUntil int64

	stats   Stats
	metrics *Metrics
}

// New builds an injector for the plan. The per-channel streams derive from
// rng.ChildSeed(seed, channel) under a fixed domain constant, so the same
// (plan, seed) replays identically no matter how many injectors exist or
// which goroutine runs them.
func New(plan Plan, seed uint64) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	base := rng.ChildSeed(seed, injectorDomain)
	return &Injector{
		plan:    plan,
		sensorR: rng.NewChild(base, sensorChannel),
		actR:    rng.NewChild(base, actuatorChannel),
		timR:    rng.NewChild(base, timingChannel),
	}, nil
}

// MustNew is New for canned (pre-validated) plans.
func MustNew(plan Plan, seed uint64) *Injector {
	in, err := New(plan, seed)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns the counts of faults fired so far.
func (in *Injector) Stats() Stats { return in.stats }

// SetMetrics attaches telemetry counters (nil detaches).
func (in *Injector) SetMetrics(m *Metrics) { in.metrics = m }

// Attach installs the plan's counter and actuator faults on the machine:
// energy-counter wraparound, actuation lag scaling, and the SetInputs
// filter for command drops and stuck knobs. An empty plan installs nothing.
// The machine may stand alone or be one tenant of a sim.MachineBank
// (MachineBank.Machine), which is how the fleet engine attaches
// per-tenant plans.
func (in *Injector) Attach(m *sim.Machine) {
	if in.plan.Counter.WrapJ > 0 {
		m.SetEnergyWrap(in.plan.Counter.WrapJ)
	}
	if s := in.plan.Actuator.LagScale; s > 0 && s != 1 { //nolint:maya/floateq LagScale is an exact config value; 1 means disabled
		m.SetLagScale(s)
	}
	a := in.plan.Actuator
	if a.DropProb > 0 || a.StuckProb > 0 {
		m.SetInputFilter(in.filterInputs)
	}
}

// filterInputs implements the actuator fault channel as a sim.InputFilter.
func (in *Injector) filterInputs(tick int64, commanded, current sim.Inputs) sim.Inputs {
	a := in.plan.Actuator
	if a.DropProb > 0 && in.actR.Bool(a.DropProb) {
		in.stats.CommandDrops++
		if in.metrics != nil {
			in.metrics.ActuatorFaults.Inc()
		}
		return current
	}
	if a.StuckProb > 0 && tick >= in.stuckUntil && in.actR.Bool(a.StuckProb) {
		// Start a stuck window: one knob freezes at its current setting.
		in.stuckKnob = in.actR.Intn(3)
		in.stuckUntil = tick + int64(a.StuckTicks)
		switch in.stuckKnob {
		case 0:
			in.stuckVal = current.FreqGHz
		case 1:
			in.stuckVal = current.Idle
		default:
			in.stuckVal = current.Balloon
		}
	}
	if tick < in.stuckUntil {
		in.stats.KnobStuck++
		if in.metrics != nil {
			in.metrics.ActuatorFaults.Inc()
		}
		switch in.stuckKnob {
		case 0:
			commanded.FreqGHz = in.stuckVal
		case 1:
			commanded.Idle = in.stuckVal
		default:
			commanded.Balloon = in.stuckVal
		}
	}
	return commanded
}

// Sensor wraps s with the plan's sensor faults. With an empty sensor plan
// the wrapper forwards readings untouched (and draws nothing from the
// fault stream), so wrapping is always safe.
func (in *Injector) Sensor(s sim.PowerSensor) *FaultySensor {
	return &FaultySensor{inner: s, in: in}
}

// Policy wraps p with the plan's timing faults.
func (in *Injector) Policy(p sim.Policy) *FaultyPolicy {
	return &FaultyPolicy{inner: p, in: in}
}

// FaultySensor overlays a SensorPlan on any sim.PowerSensor (RAPLSensor,
// OutletSensor, ...). It satisfies the sensor read-after-observe contract:
// Observe is forwarded per tick and ReadW perturbs only the returned value,
// never the inner sensor's accumulation state.
type FaultySensor struct {
	inner sim.PowerSensor
	in    *Injector

	stuckLeft int
	stuckVal  float64
}

// Observe implements sim.PowerSensor.
func (s *FaultySensor) Observe(r sim.StepResult) { s.inner.Observe(r) }

// ReadW implements sim.PowerSensor, applying the plan's read faults in a
// fixed order: stuck window, dropout, non-finite, spike.
func (s *FaultySensor) ReadW() float64 {
	v := s.inner.ReadW()
	p := s.in.plan.Sensor
	if s.stuckLeft > 0 {
		s.stuckLeft--
		s.count(&s.in.stats.SensorStuck)
		return s.stuckVal
	}
	if p.StuckProb > 0 && s.in.sensorR.Bool(p.StuckProb) && p.StuckReads > 0 {
		s.stuckLeft = p.StuckReads
		s.stuckVal = v
		// The triggering read itself is served from the window too.
		s.stuckLeft--
		s.count(&s.in.stats.SensorStuck)
		return s.stuckVal
	}
	if p.DropoutProb > 0 && s.in.sensorR.Bool(p.DropoutProb) {
		s.count(&s.in.stats.SensorDropouts)
		return 0
	}
	if p.NonFiniteProb > 0 && s.in.sensorR.Bool(p.NonFiniteProb) {
		s.count(&s.in.stats.SensorNonFinite)
		switch s.in.sensorR.Intn(3) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	if p.SpikeProb > 0 && s.in.sensorR.Bool(p.SpikeProb) {
		s.count(&s.in.stats.SensorSpikes)
		mag := p.SpikeMagW
		if s.in.sensorR.Bool(0.5) {
			mag = -mag
		}
		return v + mag
	}
	return v
}

func (s *FaultySensor) count(c *uint64) {
	*c++
	if s.in.metrics != nil {
		s.in.metrics.SensorFaults.Inc()
	}
}

// FaultyPolicy overlays a TimingPlan on a sim.Policy: missed deadlines keep
// the previous command in force without running the inner policy (the
// wakeup never happened, so the mask does not advance either), and jittered
// wakeups hand the inner policy the previous period's sample.
type FaultyPolicy struct {
	inner sim.Policy
	in    *Injector

	prev      sim.Inputs
	prevPower float64
}

// Decide implements sim.Policy. At most one timing fault fires per step,
// a miss before a stale sample, and step 0 never faults: there is no
// previous command to hold yet.
func (p *FaultyPolicy) Decide(step int, powerW float64) sim.Inputs {
	in, t := p.in, p.in.plan.Timing
	if step > 0 && t.MissProb > 0 && in.timR.Bool(t.MissProb) {
		in.stats.DeadlineMisses++
		if in.metrics != nil {
			in.metrics.TimingFaults.Inc()
		}
		p.prevPower = powerW
		return p.prev
	}
	pw := powerW
	if step > 0 && t.StaleProb > 0 && in.timR.Bool(t.StaleProb) {
		in.stats.StaleSamples++
		if in.metrics != nil {
			in.metrics.TimingFaults.Inc()
		}
		pw = p.prevPower
	}
	p.prevPower = powerW
	p.prev = p.inner.Decide(step, pw)
	return p.prev
}
