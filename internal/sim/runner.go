package sim

import (
	"github.com/maya-defense/maya/internal/workload"
)

// Policy decides actuator settings at each control period. step counts
// control periods from zero; powerW is the defense sensor's reading for the
// period that just ended. The returned inputs are applied for the next
// period. This is the seam where Baseline, Random Inputs, and the Maya
// controllers plug into the simulation.
type Policy interface {
	Decide(step int, powerW float64) Inputs
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(step int, powerW float64) Inputs

// Decide implements Policy.
func (f PolicyFunc) Decide(step int, powerW float64) Inputs { return f(step, powerW) }

// Sampler couples an attacker-side sensor with its sampling period.
type Sampler struct {
	Sensor      PowerSensor
	PeriodTicks int
	Samples     []float64
}

// RunSpec configures a simulation run.
type RunSpec struct {
	// ControlPeriodTicks is how often the policy runs (20 = 20 ms, §V).
	ControlPeriodTicks int
	// MaxTicks bounds the run length.
	MaxTicks int
	// StopOnFinish ends the run when the workload completes; otherwise the
	// machine keeps idling (and the defense keeps masking) until MaxTicks,
	// which is what hides the completion point in Fig 11d.
	StopOnFinish bool
	// Samplers are attacker-side observers fed during the run.
	Samplers []*Sampler
	// WarmupTicks runs the policy on the idle machine before the workload
	// starts; nothing is recorded and samplers are not fed. It models an
	// always-on defense that an attacker can only observe mid-operation.
	WarmupTicks int
	// DefenseSensor overrides the defense-side power sensor (nil selects a
	// fresh RAPLSensor on the machine, the paper's configuration). This is
	// the seam through which the fault-injection layer interposes a
	// fault.FaultySensor between the machine and the control loop.
	DefenseSensor PowerSensor
}

// RunResult captures everything observable from one run.
type RunResult struct {
	// DefenseSamples holds the defense RAPL reading at each control period.
	DefenseSamples []float64
	// InputTrace holds the commanded inputs chosen at each control period.
	InputTrace []Inputs
	// TickPowerW is the true per-tick core power: ground truth for tests,
	// the examples and the fleet's differential harness. A fleet run with
	// fleet.Spec.SkipTickTraces leaves it and TickWallW nil.
	TickPowerW []float64
	// TickWallW is the true per-tick wall power.
	TickWallW []float64
	// FinishedTick is the tick (within the recorded window) at which the
	// workload completed (-1 if it did not finish within MaxTicks).
	FinishedTick int64
	// FirstStep is the policy step index whose decision was in force when
	// recording began (> 0 when WarmupTicks ran); policies that log
	// per-decision data (e.g. mask targets) align entry FirstStep+t with
	// DefenseSamples[t].
	FirstStep int
	// EnergyJ is the total true core energy consumed.
	EnergyJ float64
	// Seconds is the wall-clock duration simulated.
	Seconds float64
}

// Run drives machine m under workload w and policy p according to spec:
// a Loop driven to its end, with the per-tick traces kept from its ticks.
// The workload should be freshly Reset by the caller (runs differ by seed).
func Run(m *Machine, w workload.Workload, p Policy, spec RunSpec) RunResult {
	l := NewLoop(m, w, p, spec)
	l.Start()
	// A caller's MaxTicks sizes the traces once; under the 1<<20 default
	// they grow with the run instead.
	var power, wall []float64
	if spec.MaxTicks > 0 {
		power, wall = make([]float64, 0, spec.MaxTicks), make([]float64, 0, spec.MaxTicks)
	}
	for !l.Done() {
		powerW, wallW, boundary := l.Tick()
		power = append(power, powerW)
		wall = append(wall, wallW)
		if boundary {
			l.Sense()
			l.Decide()
			l.Actuate()
		}
	}
	res := l.Result()
	res.TickPowerW, res.TickWallW = power, wall
	return res
}

// Loop is one run of the control loop on one machine, advanced by its
// caller: Start, then Tick until Done, with Sense, Decide and Actuate, in
// that order, after each Tick that ends a control period. Run drives one
// Loop to its end, and so does defense.Collect, which keeps a running sum
// of the tick power instead of Run's traces; the fleet engine advances one
// per tenant, each phase across all its tenants. A Loop keeps the
// period-level result; the per-tick traces are the caller's to keep, from
// what Tick returns.
type Loop struct {
	m      *Machine
	w      workload.Workload
	p      Policy
	spec   RunSpec
	sensor PowerSensor
	res    RunResult

	step        int     // the policy step whose decision is in force
	tick        int     // recorded ticks stepped
	untilPeriod int     // ticks left in the current control period
	untilSample []int   // ticks left in each sampler's current period
	powerW      float64 // Sense's reading, for Decide
	in          Inputs  // Decide's inputs, for Actuate
	startEnergy float64
	stopped     bool // StopOnFinish ended the run
}

// NewLoop prepares a run of machine m under workload w and policy p
// according to spec; nothing steps before Start. The workload should be
// freshly Reset by the caller (runs differ by seed).
func NewLoop(m *Machine, w workload.Workload, p Policy, spec RunSpec) *Loop {
	if spec.ControlPeriodTicks <= 0 {
		spec.ControlPeriodTicks = 20
	}
	if spec.MaxTicks <= 0 {
		spec.MaxTicks = 1 << 20
	}
	sensor := spec.DefenseSensor
	if sensor == nil {
		sensor = NewRAPLSensor(m)
	}
	l := &Loop{m: m, w: w, p: p, spec: spec, sensor: sensor, res: RunResult{FinishedTick: -1}}
	l.untilSample = make([]int, len(spec.Samplers))
	for i, s := range spec.Samplers {
		l.untilSample[i] = s.PeriodTicks
	}
	return l
}

// Start lets the policy choose the initial inputs before any power is
// read, then runs the unrecorded warmup, after which Tick records.
func (l *Loop) Start() {
	l.m.SetInputs(l.p.Decide(l.step, 0))

	// Unrecorded warmup: the defense regulates the idle machine.
	var idle workload.Idle
	l.untilPeriod = l.spec.ControlPeriodTicks
	for range l.spec.WarmupTicks {
		// Feed the defense sensor per the PowerSensor contract (a no-op for
		// the default RAPLSensor, whose state lives in the machine).
		l.sensor.Observe(l.m.Step(idle))
		if l.untilPeriod--; l.untilPeriod == 0 {
			l.untilPeriod = l.spec.ControlPeriodTicks
			pw := l.sensor.ReadW()
			l.step++
			l.m.SetInputs(l.p.Decide(l.step, pw))
		}
	}

	// Recorded periods start with the recording.
	l.untilPeriod = l.spec.ControlPeriodTicks
	l.startEnergy = l.m.TrueEnergyJ()
	l.res.FirstStep = l.step
	l.res.InputTrace = append(l.res.InputTrace, l.m.Inputs())
}

// Tick steps one recorded machine tick and returns its true core and wall
// power, the per-tick traces callers keep. The defense sensor and the
// samplers observe the tick, and the tick on which the workload completes
// is noted. Tick reports whether the tick ends a control period. Under
// StopOnFinish the completing tick ends the run instead: the final
// partial period is read for accounting, and no decision follows.
// Returning the five-field StepResult instead cost ≈9 % per tick against
// an inline loop (≈3 % with two floats; 2-vCPU Xeon, Go 1.24).
func (l *Loop) Tick() (powerW, wallW float64, boundary bool) {
	r := l.m.Step(l.w)
	l.tick++
	l.sensor.Observe(r)
	for i, s := range l.spec.Samplers {
		s.Sensor.Observe(r)
		if l.untilSample[i]--; l.untilSample[i] == 0 {
			l.untilSample[i] = s.PeriodTicks
			s.Samples = append(s.Samples, s.Sensor.ReadW())
		}
	}
	if r.Finished && l.res.FinishedTick < 0 {
		l.res.FinishedTick = int64(l.tick)
		if l.spec.StopOnFinish {
			l.res.DefenseSamples = append(l.res.DefenseSamples, l.sensor.ReadW())
			l.stopped = true
			return r.PowerW, r.WallW, false
		}
	}
	if l.untilPeriod--; l.untilPeriod > 0 {
		return r.PowerW, r.WallW, false
	}
	l.untilPeriod = l.spec.ControlPeriodTicks
	return r.PowerW, r.WallW, true
}

// Done reports whether the run is over: MaxTicks ticks recorded, or the
// workload completed under StopOnFinish.
func (l *Loop) Done() bool { return l.stopped || l.tick >= l.spec.MaxTicks }

// Sense reads the defense sensor at a period boundary, records the
// reading and returns it.
func (l *Loop) Sense() float64 {
	l.powerW = l.sensor.ReadW()
	l.res.DefenseSamples = append(l.res.DefenseSamples, l.powerW)
	return l.powerW
}

// Decide runs the policy's next step on Sense's reading.
func (l *Loop) Decide() {
	l.step++
	l.in = l.p.Decide(l.step, l.powerW)
}

// Actuate commands Decide's inputs and records the settings the machine
// took.
func (l *Loop) Actuate() {
	l.m.SetInputs(l.in)
	l.res.InputTrace = append(l.res.InputTrace, l.m.Inputs())
}

// Result returns the run's result so far, without the per-tick traces:
// at the end, what Run returns bar TickPowerW and TickWallW, and called
// early, a bit-identical prefix of that.
func (l *Loop) Result() RunResult {
	res := l.res
	res.EnergyJ = l.m.TrueEnergyJ() - l.startEnergy
	res.Seconds = float64(l.tick) * l.m.cfg.TickSeconds
	return res
}

// RecordDemands executes w on a fresh baseline machine for the given number
// of ticks and returns the demand offered at each tick. Because the machine
// runs the workload, the trace captures phase progression: it reflects the
// workload as a real profiler would see it executing at full speed.
func RecordDemands(cfg Config, w workload.Workload, ticks int, seed uint64) []workload.Demand {
	m := NewMachine(cfg, seed)
	out := make([]workload.Demand, 0, ticks)
	for i := 0; i < ticks; i++ {
		out = append(out, w.Demand())
		// Demand consumed one tick of the workload's clock; step the
		// machine with an equivalent-demand shim so work advances at the
		// recorded rate.
		m.Step(replayShim{d: out[len(out)-1], w: w})
	}
	return out
}

// replayShim lets RecordDemands feed the machine the already-sampled demand
// while routing progress back to the original workload.
type replayShim struct {
	d workload.Demand
	w workload.Workload
}

func (s replayShim) Name() string            { return s.w.Name() }
func (s replayShim) Demand() workload.Demand { return s.d }
func (s replayShim) Advance(v float64) bool  { return s.w.Advance(v) }
func (s replayShim) Done() bool              { return s.w.Done() }
func (s replayShim) TotalWork() float64      { return s.w.TotalWork() }
func (s replayShim) Reset(seed uint64)       { s.w.Reset(seed) }

// BaselinePolicy runs the machine at maximum frequency with no idle
// injection and no balloon — the insecure high-performance Baseline of
// Table V.
type BaselinePolicy struct {
	Freq float64
}

// NewBaselinePolicy returns a baseline policy for the machine config.
func NewBaselinePolicy(cfg Config) *BaselinePolicy {
	return &BaselinePolicy{Freq: cfg.FmaxGHz}
}

// Decide implements Policy.
func (b *BaselinePolicy) Decide(int, float64) Inputs {
	return Inputs{FreqGHz: b.Freq}
}
