package fleet

import (
	"time"

	"github.com/maya-defense/maya/internal/telemetry"
)

// Metrics instruments a fleet run's tick phases. The phase timers measure
// the host (overhead accounting); they never feed decisions, and with
// metrics detached the run takes no timestamps at all — which is why the
// differential harness, which runs metrics-free, is unaffected.
//
// An engine counts into plain fields of its own and adds them into these
// counters in batches: on every sampleSteps-th control step, on the run's
// last period, in Results, and when Evict removes its last slot. Between
// batches the counters lag the run; at each batch Ticks and Periods are
// exact. A bank of fewer than sampleSteps tenants estimates its phase
// times from every sampleSteps-th control step (step % 8 == 0, the way
// telemetry.Tracer.TickSampled picks ticks): it times that period's
// phases, and each counts sampleSteps-fold. Its phase counters are
// unbiased but noisier than per-period timing; a preempted sampled
// period, for one, counts eight times. A bigger bank times every period,
// which costs it less per tenant-period than sampling costs a small one.
type Metrics struct {
	// Ticks counts machine ticks stepped, summed across tenants.
	Ticks *telemetry.Counter
	// Periods counts control periods (one decision per tenant each).
	Periods *telemetry.Counter
	// MachineNs, SenseNs, ControlNs, ActuateNs accumulate host wall time
	// per control-period phase (a small bank's estimate of it), one clock
	// read per phase of a timed period: the machine phase (every tenant's
	// ticks of the period with their sensor observations and trace
	// recording), the per-tenant sensor reads, every tenant's control
	// decision through its own policy, and the actuator commit across the
	// bank. Engines that share a registry add into the same counters; in
	// mayad, whose banks step at the same time on parallel workers, the
	// counters therefore measure busy time summed over banks and can exceed
	// elapsed time.
	MachineNs *telemetry.Counter
	SenseNs   *telemetry.Counter
	ControlNs *telemetry.Counter
	ActuateNs *telemetry.Counter
}

// NewMetrics registers the fleet instruments. Multiple fleets may share a
// registry; counters then aggregate across them.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	const est = " (estimated from every 8th control step in banks under 8 tenants; updated in batches)"
	return &Metrics{
		Ticks:     reg.Counter("maya_fleet_ticks_total", "machine ticks stepped across all tenants"),
		Periods:   reg.Counter("maya_fleet_periods_total", "fleet control periods executed"),
		MachineNs: reg.Counter("maya_fleet_machine_ns_total", "host wall ns in the per-period machine phase"+est),
		SenseNs:   reg.Counter("maya_fleet_sense_ns_total", "host ns in per-tenant sensor reads"+est),
		ControlNs: reg.Counter("maya_fleet_control_ns_total", "host ns in the per-tenant control decisions"+est),
		ActuateNs: reg.Counter("maya_fleet_actuate_ns_total", "host ns in the actuator commit across the bank"+est),
	}
}

// sampleSteps is how often an engine publishes its tally, and how often a
// bank of fewer than sampleSteps tenants times a period: when the step the
// period starts from is a multiple of it. Timing a period takes five
// clock reads, so either way timing costs at most 5/sampleSteps of a read
// per tenant-period. NewMetrics' help strings name its value.
const sampleSteps = 8

// epoch anchors the phase timers' monotonic clock.
var epoch = time.Now() //maya:wallclock fleet phase overhead accounting; never feeds decisions

// clock returns monotonic nanoseconds since epoch, for phase accounting
// only.
func clock() int64 {
	return int64(time.Since(epoch)) //maya:wallclock fleet phase overhead accounting; never feeds decisions
}

// lap adds weight times the host time since t0 into *ns and returns the
// time now, where the next phase starts.
func lap(ns *uint64, t0 int64, weight uint64) int64 {
	t := clock()
	*ns += weight * uint64(t-t0)
	return t
}

// tally is what an engine has counted since it last published: no atomic
// operation runs on the per-period path.
type tally struct {
	ticks, periods                           uint64
	machineNs, senseNs, controlNs, actuateNs uint64
}

// publish adds the tally into the attached metrics, if any, and clears it.
func (e *Engine) publish() {
	if m, t := e.metrics, &e.tally; m != nil {
		add(m.Ticks, t.ticks)
		add(m.Periods, t.periods)
		add(m.MachineNs, t.machineNs)
		add(m.SenseNs, t.senseNs)
		add(m.ControlNs, t.controlNs)
		add(m.ActuateNs, t.actuateNs)
	}
	e.tally = tally{}
}

// add adds n into c, skipping the atomic operation when n is zero.
func add(c *telemetry.Counter, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}
