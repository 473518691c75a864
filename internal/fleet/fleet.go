// Package fleet steps many defended machines in one process. Each tenant
// is one sim.Loop, the control loop sim.Run drives, over a scalar
// sim.Machine held contiguously in a sim.MachineBank. A period steps the
// tenants' machine ticks in cache blocks, then senses, decides and
// actuates across the tenants, one phase at a time. Every tenant decides
// through its own policy: the defense's sim.Policy, which for the Maya
// kinds is a core.Engine with its own control.Controller, wrapped in
// fault.FaultyPolicy when a fault plan is attached. An engine runs on its
// caller's goroutine and starts none of its own; tenants share nothing,
// so a caller that wants parallelism steps several engines at once, as
// mayad's scheduler does. The engine holds no lock: its only seam with
// other goroutines is the telemetry registry its Metrics count into.
//
// Every tenant of a fleet run produces exactly the traces, flight records,
// and guard decisions of an independent scalar core.Engine/sim.Run with
// the same derived seeds. The difftest subpackage pins what the fleet
// adds of its own, its wiring and the order in which it interleaves its
// tenants' phases, across all five defenses, fault plans, and tenant
// counts; golden_test.go pins a committed 16-tenant trace.
package fleet

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// tenantDomain separates per-tenant seed derivation from other users of
// rng.ChildSeed on the same base seed.
const tenantDomain = 0xf1ee7 // "FLEET"

// TenantSeeds derives tenant t's four independent run seeds from the fleet
// base seed: machine noise, workload phase, policy secret, and fault
// streams. The scalar reference run for tenant t must use exactly these
// seeds — the differential harness does — and the derivation is pure, so
// seeds never depend on fleet size or construction order.
func TenantSeeds(base uint64, t int) (machine, work, policy, faults uint64) {
	tb := rng.ChildSeed(rng.ChildSeed(base, tenantDomain), uint64(t))
	return rng.ChildSeed(tb, 0), rng.ChildSeed(tb, 1), rng.ChildSeed(tb, 2), rng.ChildSeed(tb, 3)
}

// Spec configures a fleet run: one machine configuration and defense kind
// across Tenants machines, each with its own derived seeds, workload
// instance, and fault injector.
type Spec struct {
	Config sim.Config
	Kind   defense.Kind
	// Art is the synthesized Maya artifact; required for the Maya kinds,
	// ignored otherwise.
	Art *core.Design
	// PeriodTicks is the control period (default 20, the paper's 20 ms).
	PeriodTicks int
	Tenants     int
	// BaseSeed roots every tenant's seed derivation (see TenantSeeds).
	BaseSeed uint64
	// SeedAt, when non-nil, overrides per-tenant seed derivation: it
	// returns slot t's four run seeds in TenantSeeds order. This is how a
	// daemon packs tenants with unrelated identities into one bank — each
	// slot carries TenantSeeds(itsOwnSeed, itsOwnIndex) — while staying
	// bit-identical to a solo run with those seeds. Nil derives
	// TenantSeeds(BaseSeed, t).
	SeedAt func(t int) (machine, work, policy, faults uint64)
	// NewWorkload builds one tenant's workload (it is Reset with the
	// tenant's workload seed). Nil runs every tenant idle.
	NewWorkload func() workload.Workload
	// Plan, when non-empty, attaches a per-tenant fault injector seeded
	// with the tenant's fault seed.
	Plan fault.Plan
	// Guard, when non-nil, is installed on every tenant's engine (Maya
	// kinds only, like the scalar path).
	Guard *core.Guard
	// FlightCapacity, when > 0, attaches a flight recorder of that
	// capacity to every tenant's engine (Maya kinds only).
	FlightCapacity int
	// WarmupTicks and MaxTicks mirror sim.RunSpec: an unrecorded idle
	// warmup, then the recorded run.
	WarmupTicks int
	MaxTicks    int
	// SkipTickTraces leaves every result's TickPowerW and TickWallW nil.
	// The per-tick traces cost two floats per tenant per tick and serve
	// only callers that read ground truth tick by tick (the differential
	// harness, tests); a caller that keeps the period-level trace sets it.
	// Every other result field is unchanged.
	SkipTickTraces bool
}

// TenantResult is one tenant's view of a fleet run: exactly the
// sim.RunResult a scalar run produces, plus the Maya-side artifacts.
type TenantResult struct {
	sim.RunResult
	// Targets aliases the tenant engine's mask-target log (Maya kinds).
	Targets []float64
	// Flight is the tenant's flight recorder, if one was attached.
	Flight *telemetry.FlightRecorder
	// Stats counts the faults the tenant's injector fired.
	Stats fault.Stats
}

// Engine is one fleet in flight: one sim.Loop per tenant slot over the
// machines of a sim.MachineBank. One caller owns it and calls its methods
// from one goroutine at a time, and every method runs on that goroutine.
// Concurrent observers read only through the telemetry registry (see the
// race test).
type Engine struct {
	spec Spec
	bank *sim.MachineBank
	// tenants holds the slots not evicted, in slot order.
	tenants []tenant
	// pw holds every slot's latest period reading, for Readings.
	pw   []float64
	step int

	metrics *Metrics
	// tally is counted every period and published into metrics in batches.
	tally tally

	started  bool
	finished bool
}

// tenant is one slot's run: its control loop, plus what Results reads
// beside the loop's result.
type tenant struct {
	slot int
	loop *sim.Loop
	// engine is the slot's core.Engine (Maya kinds), whose mask targets
	// and flight recorder Results returns.
	engine *core.Engine
	inj    *fault.Injector
	// power and wall are the per-tick traces, unless Spec.SkipTickTraces.
	power, wall []float64
}

// New assembles a fleet. It panics on an invalid spec (like sim.NewMachine
// on an invalid config).
func New(spec Spec) *Engine {
	if spec.Tenants <= 0 {
		panic("fleet: Spec.Tenants must be positive")
	}
	if spec.PeriodTicks <= 0 {
		spec.PeriodTicks = 20
	}
	maya := spec.Kind == defense.MayaConstant || spec.Kind == defense.MayaGS
	if maya && spec.Art == nil {
		panic("fleet: Maya kinds need a synthesized core.Design")
	}
	d := defense.NewDesign(spec.Kind, spec.Config, spec.Art, spec.PeriodTicks)

	T := spec.Tenants
	e := &Engine{
		spec:    spec,
		tenants: make([]tenant, T),
		pw:      make([]float64, T),
	}

	seedAt := spec.SeedAt
	if seedAt == nil {
		seedAt = func(t int) (uint64, uint64, uint64, uint64) {
			return TenantSeeds(spec.BaseSeed, t)
		}
	}
	machineSeeds := make([]uint64, T)
	for t := 0; t < T; t++ {
		machineSeeds[t], _, _, _ = seedAt(t)
	}
	e.bank = sim.NewMachineBank(spec.Config, machineSeeds)

	for t := range e.tenants {
		tn := &e.tenants[t]
		tn.slot = t
		m := e.bank.Machine(t)
		_, ws, ps, fs := seedAt(t)
		if !spec.Plan.Empty() {
			tn.inj = fault.MustNew(spec.Plan, fs)
			tn.inj.Attach(m)
		}
		var sensor sim.PowerSensor = e.bank.Sensor(t)
		if tn.inj != nil {
			sensor = tn.inj.Sensor(sensor)
		}

		var w workload.Workload = workload.Idle{}
		if spec.NewWorkload != nil {
			w = spec.NewWorkload()
			w.Reset(ws)
		}

		pol := d.Policy(ps)
		if maya {
			eng, ok := pol.(*core.Engine)
			if !ok {
				panic(fmt.Sprintf("fleet: %v policy is %T, not *core.Engine", spec.Kind, pol))
			}
			if spec.Guard != nil {
				eng.SetGuard(spec.Guard)
			}
			if spec.FlightCapacity > 0 {
				eng.SetFlight(telemetry.NewFlightRecorder(spec.FlightCapacity))
			}
			tn.engine = eng
		}
		if tn.inj != nil {
			pol = tn.inj.Policy(pol)
		}
		tn.loop = sim.NewLoop(m, w, pol, sim.RunSpec{
			ControlPeriodTicks: spec.PeriodTicks,
			MaxTicks:           spec.MaxTicks,
			WarmupTicks:        spec.WarmupTicks,
			DefenseSensor:      sensor,
		})
	}
	return e
}

// SetMetrics attaches fleet telemetry (nil detaches). What the engine has
// counted and not yet published goes to the metrics attached before.
func (e *Engine) SetMetrics(m *Metrics) {
	e.publish()
	e.metrics = m
}

// Run executes the fleet to MaxTicks and returns one result per tenant.
// Run is Start + StepPeriod-to-exhaustion + Results; incremental callers
// (mayad's scheduler) drive the three directly so admissions and
// evictions can interleave with the run.
func (e *Engine) Run() []TenantResult {
	e.Start()
	for e.StepPeriod() {
	}
	return e.Results()
}

// Start starts every tenant's loop: the initial decision and the
// unrecorded warmup. After Start, StepPeriod advances the recorded run one
// control period at a time. Start may be called once.
func (e *Engine) Start() {
	if e.started {
		panic("fleet: Engine.Start called twice")
	}
	e.started = true
	for i := range e.tenants {
		tn := &e.tenants[i]
		// The traces are sized here, not in New, so that timing a run
		// from Start times their allocation. Under the 1<<20 default
		// MaxTicks they grow with the run instead.
		if !e.spec.SkipTickTraces && e.spec.MaxTicks > 0 {
			tn.power = make([]float64, 0, e.spec.MaxTicks)
			tn.wall = make([]float64, 0, e.spec.MaxTicks)
		}
		tn.loop.Start()
	}
	if len(e.tenants) > 0 {
		e.step = e.tenants[0].loop.Result().FirstStep
	}
}

// blockTenants is how many tenants StepPeriod carries through the whole
// machine phase at a time. A block's machines, workloads, noise streams
// and trace tails stay in the core's first-level cache across the phase's
// ticks, where hundreds of tenants would be fetched from further out on
// every tick. On a 2-vCPU Xeon, 1000 mayad-shaped tenants stepped in
// blocks of one ran 8.5 % slower than in blocks of 16 (449k against 491k
// tenant-periods/s).
const blockTenants = 16

// StepPeriod advances the recorded run by one control period (or the
// trailing partial period when MaxTicks is not a period multiple) and
// reports whether ticks remain. It must follow Start.
//
// The period runs as four phases, each across every tenant: the machine
// ticks up to the period boundary, a block of tenants at a time, then
// Sense, Decide and Actuate. Every tenant shares the spec, so all of them
// reach the boundary, or the end of the run, on the same tick; a tenant
// touches only its own loop, so neither the blocking nor the phase order
// shows in a result. With metrics attached, a period that starts from a
// step divisible by sampleSteps publishes the engine's tally, and a timed
// period reads the clock once per phase (see Metrics).
func (e *Engine) StepPeriod() bool {
	if !e.started {
		panic("fleet: Engine.StepPeriod before Start")
	}
	if len(e.tenants) == 0 || e.tenants[0].loop.Done() {
		return false
	}
	sampled := e.step%sampleSteps == 0
	// weight is how many periods this one's phase times stand for: 1 when
	// the bank times every period, sampleSteps on a small bank's sampled
	// period, and 0 when the period is not timed.
	var weight uint64
	switch {
	case e.metrics == nil:
	case len(e.tenants) >= sampleSteps:
		weight = 1
	case sampled:
		weight = sampleSteps
	}
	timed := weight > 0
	var tPhase int64
	if timed {
		tPhase = clock()
	}
	boundary, ticks := false, 0
	for lo := 0; lo < len(e.tenants); lo += blockTenants {
		block := e.tenants[lo:min(lo+blockTenants, len(e.tenants))]
		for more := true; more; {
			for i := range block {
				tn := &block[i]
				var powerW, wallW float64
				powerW, wallW, boundary = tn.loop.Tick()
				if !e.spec.SkipTickTraces {
					tn.power = append(tn.power, powerW)
					tn.wall = append(tn.wall, wallW)
				}
				more = !boundary && !tn.loop.Done()
			}
			ticks += len(block)
		}
	}
	e.tally.ticks += uint64(ticks)
	if timed {
		tPhase = lap(&e.tally.machineNs, tPhase, weight)
	}
	if boundary {
		for i := range e.tenants {
			tn := &e.tenants[i]
			e.pw[tn.slot] = tn.loop.Sense()
		}
		if timed {
			tPhase = lap(&e.tally.senseNs, tPhase, weight)
		}
		for i := range e.tenants {
			e.tenants[i].loop.Decide()
		}
		e.step++
		e.tally.periods++
		if timed {
			tPhase = lap(&e.tally.controlNs, tPhase, weight)
		}
		for i := range e.tenants {
			e.tenants[i].loop.Actuate()
		}
		if timed {
			lap(&e.tally.actuateNs, tPhase, weight)
		}
	}
	more := !e.tenants[0].loop.Done()
	if sampled || !more {
		e.publish()
	}
	return more
}

// Readings returns the latest period boundary's sensor readings, one per
// slot, and the step whose decisions they fed. The slice is the engine's
// own, overwritten at the next boundary. The step advances only at a
// boundary, so a caller that remembers it sees each period once. Right
// after Start the readings are zero (the warmup's are not kept), and an
// evicted slot's reading is no longer updated.
func (e *Engine) Readings() (step int, powerW []float64) { return e.step, e.pw }

// Results finalizes and returns one result per tenant slot: exactly what
// Run returns when the run consumed MaxTicks, and a bit-identical prefix
// of that when called early (a daemon draining mid-run). Evicted slots
// are zero. Results may be called once.
func (e *Engine) Results() []TenantResult {
	if !e.started {
		panic("fleet: Engine.Results before Start")
	}
	if e.finished {
		panic("fleet: Engine.Results called twice")
	}
	e.finished = true
	e.publish()
	res := make([]TenantResult, e.spec.Tenants)
	for _, tn := range e.tenants {
		r := &res[tn.slot]
		r.RunResult = tn.loop.Result()
		r.TickPowerW, r.TickWallW = tn.power, tn.wall
		if tn.engine != nil {
			r.Targets = tn.engine.Targets
			r.Flight = tn.engine.Flight()
		}
		if tn.inj != nil {
			r.Stats = tn.inj.Stats()
		}
	}
	return res
}

// Evict drops slot t's run: its machine and controller stop stepping and
// its buffers are released. Tenants are fully independent, so the
// survivors' traces are unchanged. Evicting a slot twice is a no-op; an
// engine with every slot evicted steps nothing, and its owner should drop
// it: evicting the last slot publishes the engine's tally.
func (e *Engine) Evict(t int) {
	i, ok := slices.BinarySearchFunc(e.tenants, t, func(tn tenant, slot int) int {
		return cmp.Compare(tn.slot, slot)
	})
	if ok {
		e.tenants = slices.Delete(e.tenants, i, i+1)
		if len(e.tenants) == 0 {
			e.publish()
		}
	}
}

// Alive reports how many slots have not been evicted.
func (e *Engine) Alive() int { return len(e.tenants) }
