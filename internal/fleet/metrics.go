package fleet

import (
	"time"

	"github.com/maya-defense/maya/internal/telemetry"
)

// Metrics instruments a fleet run's tick phases. The phase timers measure
// the host (overhead accounting, like Engine.DecideTime on the scalar
// path); they never feed decisions, and with metrics detached the run
// takes no timestamps at all — which is why the differential harness,
// which runs metrics-free, is unaffected.
type Metrics struct {
	// Ticks counts machine ticks stepped, summed across tenants.
	Ticks *telemetry.Counter
	// Periods counts control periods (one batched decide each).
	Periods *telemetry.Counter
	// Tenants records the fleet size of the current run.
	Tenants *telemetry.Gauge
	// MachineNs, SenseNs, ControlNs, ActuateNs accumulate host wall time
	// per control-period phase, one clock read per phase: the machine
	// phase (every tenant's ticks of the period with their sensor
	// observations and trace recording; wall time, however many
	// goroutines share it), the per-tenant sensor reads, the batched
	// control decision, and the batched actuator commit.
	MachineNs *telemetry.Counter
	SenseNs   *telemetry.Counter
	ControlNs *telemetry.Counter
	ActuateNs *telemetry.Counter
	// SpillDropped counts samples a bounded Spill discarded (drop-oldest)
	// because no subscriber drained them; wire it with
	// Spill.SetDropCounter.
	SpillDropped *telemetry.Counter
}

// NewMetrics registers the fleet instruments. Multiple fleets may share a
// registry; counters then aggregate across them.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		Ticks:     reg.Counter("maya_fleet_ticks_total", "machine ticks stepped across all tenants"),
		Periods:   reg.Counter("maya_fleet_periods_total", "fleet control periods executed"),
		Tenants:   reg.Gauge("maya_fleet_tenants", "tenant count of the current fleet run"),
		MachineNs: reg.Counter("maya_fleet_machine_ns_total", "host wall ns in the per-period machine phase"),
		SenseNs:   reg.Counter("maya_fleet_sense_ns_total", "host ns in per-tenant sensor reads"),
		ControlNs: reg.Counter("maya_fleet_control_ns_total", "host ns in the batched control decision"),
		ActuateNs: reg.Counter("maya_fleet_actuate_ns_total", "host ns in the batched actuator commit"),
		SpillDropped: reg.Counter("maya_fleet_spill_dropped_total",
			"spill samples discarded by drop-oldest because no reader drained"),
	}
}

// clock returns a host timestamp for phase accounting, or 0 with metrics
// detached so the metric-free path takes no timestamps.
func (e *Engine) clock() int64 {
	if e.metrics == nil {
		return 0
	}
	return time.Now().UnixNano() //maya:wallclock fleet phase overhead accounting; never feeds decisions
}
