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
	// TickPowerW is the true per-tick core power: ground truth for tests
	// and the source of defense.Collect's average power. A fleet run with
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

// Run drives machine m under workload w and policy p according to spec.
// The workload should be freshly Reset by the caller (runs differ by seed).
func Run(m *Machine, w workload.Workload, p Policy, spec RunSpec) RunResult {
	if spec.ControlPeriodTicks <= 0 {
		spec.ControlPeriodTicks = 20
	}
	if spec.MaxTicks <= 0 {
		spec.MaxTicks = 1 << 20
	}
	defSensor := spec.DefenseSensor
	if defSensor == nil {
		defSensor = NewRAPLSensor(m)
	}
	res := RunResult{FinishedTick: -1}
	step := 0

	// Let the policy choose the initial inputs before any power is read.
	m.SetInputs(p.Decide(step, 0))

	// Unrecorded warmup: the defense regulates the idle machine.
	var idle workload.Idle
	for tick := 0; tick < spec.WarmupTicks; tick++ {
		r := m.Step(idle)
		// Feed the defense sensor per the PowerSensor contract (a no-op for
		// the default RAPLSensor, whose state lives in the machine).
		defSensor.Observe(r)
		if (tick+1)%spec.ControlPeriodTicks == 0 {
			pw := defSensor.ReadW()
			step++
			m.SetInputs(p.Decide(step, pw))
		}
	}

	startEnergy := m.TrueEnergyJ()
	res.FirstStep = step
	res.InputTrace = append(res.InputTrace, m.Inputs())
	for tick := 0; tick < spec.MaxTicks; tick++ {
		r := m.Step(w)
		res.TickPowerW = append(res.TickPowerW, r.PowerW)
		res.TickWallW = append(res.TickWallW, r.WallW)
		defSensor.Observe(r)
		for _, s := range spec.Samplers {
			s.Sensor.Observe(r)
			if s.PeriodTicks > 0 && (tick+1)%s.PeriodTicks == 0 {
				s.Samples = append(s.Samples, s.Sensor.ReadW())
			}
		}
		if r.Finished && res.FinishedTick < 0 {
			res.FinishedTick = int64(tick) + 1
			if spec.StopOnFinish {
				// Read out the final partial control period for accounting.
				res.DefenseSamples = append(res.DefenseSamples, defSensor.ReadW())
				break
			}
		}
		if (tick+1)%spec.ControlPeriodTicks == 0 {
			pw := defSensor.ReadW()
			res.DefenseSamples = append(res.DefenseSamples, pw)
			step++
			m.SetInputs(p.Decide(step, pw))
			res.InputTrace = append(res.InputTrace, m.Inputs())
		}
	}
	res.EnergyJ = m.TrueEnergyJ() - startEnergy
	res.Seconds = float64(len(res.TickPowerW)) * m.Config().TickSeconds
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
