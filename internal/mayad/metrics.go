package mayad

import "github.com/maya-defense/maya/internal/telemetry"

// metrics are the daemon's own instruments; the fleet engines underneath
// add the maya_fleet_* phase series. The spill's drop counter keeps its
// established series name, maya_fleet_spill_dropped_total.
type metrics struct {
	Admitted *telemetry.Counter
	// Shed counts admissions rejected with 503 + Retry-After: draining,
	// tenant capacity, or a full scheduler queue.
	Shed    *telemetry.Counter
	Evicted *telemetry.Counter
	Done    *telemetry.Counter
	Failed  *telemetry.Counter
	// Tenants gauges residents (queued + running).
	Tenants *telemetry.Gauge
	Banks   *telemetry.Gauge
	// Draining is 1 once Drain begins.
	Draining    *telemetry.Gauge
	SpoolErrors *telemetry.Counter
	// SpillDropped counts samples the spill discarded (drop-oldest)
	// because no /spill reader drained them in time.
	SpillDropped *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) *metrics {
	return &metrics{
		Admitted:    reg.Counter("mayad_admitted_total", "tenants accepted by admission control"),
		Shed:        reg.Counter("mayad_admission_shed_total", "admissions shed with 503 (draining, capacity, or full queue)"),
		Evicted:     reg.Counter("mayad_evicted_total", "tenants evicted by DELETE before finishing"),
		Done:        reg.Counter("mayad_done_total", "tenant runs completed to MaxTicks"),
		Failed:      reg.Counter("mayad_failed_total", "tenant runs that could not start (design synthesis failed)"),
		Tenants:     reg.Gauge("mayad_tenants", "tenants resident (queued + running)"),
		Banks:       reg.Gauge("mayad_banks", "fleet banks currently stepping"),
		Draining:    reg.Gauge("mayad_draining", "1 once graceful drain has begun"),
		SpoolErrors: reg.Counter("mayad_spool_errors_total", "tenant spool writes that failed during drain"),
		SpillDropped: reg.Counter("maya_fleet_spill_dropped_total",
			"spill samples discarded by drop-oldest because no reader drained"),
	}
}
