// Package fleet steps many defended machines in one process. The
// machines are the scalar sim.Machine, held contiguously in a
// sim.MachineBank; a period's machine ticks step in cache blocks of
// tenants. Every tenant then decides through its own policy: the
// defense's sim.Policy, which for the Maya kinds is a core.Engine with its
// own control.Controller, wrapped in fault.FaultyPolicy when a fault plan
// is attached, exactly as sim.Run calls it. An engine runs on its
// caller's goroutine and starts none of its own; tenants share nothing,
// so a caller that wants parallelism steps several engines at once, as
// mayad's scheduler does. The engine holds no lock: its only seam with
// other goroutines is the telemetry registry its Metrics count into.
//
// The fleet path is pinned bit-for-bit to the scalar reference: every
// tenant of a fleet run produces exactly the traces, flight records, and
// guard decisions of an independent scalar core.Engine/sim.Run with the
// same derived seeds. The difftest subpackage is that proof, table-driven
// across all five defenses, fault plans, and tenant counts; golden_test.go
// pins a committed 16-tenant trace. What the fleet adds of its own is
// sim.Run's tick and period loop, transcribed over the bank.
package fleet

import (
	"fmt"

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

// Engine is one fleet in flight. One caller owns it and calls its methods
// from one goroutine at a time, and every method runs on that goroutine.
// Concurrent observers read only through the telemetry registry (see the
// race test).
type Engine struct {
	spec Spec
	bank *sim.MachineBank

	// policies decide for each tenant, fault-wrapped when a plan is
	// attached. For the Maya kinds, engines holds the same tenants'
	// core.Engine, whose mask targets and flight recorder Results returns.
	policies []sim.Policy
	engines  []*core.Engine

	injectors []*fault.Injector
	sensors   []sim.PowerSensor
	workloads []workload.Workload

	// Per-period scratch.
	ins     []sim.Inputs
	pw      []float64
	stepRes []sim.StepResult
	idle    []workload.Workload

	metrics *Metrics

	// Incremental-run state (Start/StepPeriod/Results). Run wraps the
	// three; a daemon interleaves them with admissions and evictions.
	res         []TenantResult
	startEnergy []float64
	step        int
	tick        int
	started     bool
	finished    bool
	// dead marks evicted slots: they keep stepping (per-tenant
	// independence makes that invisible to the survivors) but stop
	// recording, and their accumulated buffers are released.
	dead  []bool
	alive int
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
	if spec.MaxTicks <= 0 {
		spec.MaxTicks = 1 << 20
	}
	maya := spec.Kind == defense.MayaConstant || spec.Kind == defense.MayaGS
	if maya && spec.Art == nil {
		panic("fleet: Maya kinds need a synthesized core.Design")
	}
	d := defense.NewDesign(spec.Kind, spec.Config, spec.Art, spec.PeriodTicks)

	T := spec.Tenants
	e := &Engine{
		spec:      spec,
		injectors: make([]*fault.Injector, T),
		sensors:   make([]sim.PowerSensor, T),
		workloads: make([]workload.Workload, T),
		policies:  make([]sim.Policy, T),
		ins:       make([]sim.Inputs, T),
		pw:        make([]float64, T),
		stepRes:   make([]sim.StepResult, T),
		idle:      make([]workload.Workload, T),
		dead:      make([]bool, T),
		alive:     T,
	}
	if maya {
		e.engines = make([]*core.Engine, T)
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

	for t := 0; t < T; t++ {
		_, ws, ps, fs := seedAt(t)
		if !spec.Plan.Empty() {
			e.injectors[t] = fault.MustNew(spec.Plan, fs)
			e.injectors[t].Attach(e.bank.Machine(t))
		}
		var sensor sim.PowerSensor = e.bank.Sensor(t)
		if e.injectors[t] != nil {
			sensor = e.injectors[t].Sensor(sensor)
		}
		e.sensors[t] = sensor

		if spec.NewWorkload != nil {
			w := spec.NewWorkload()
			w.Reset(ws)
			e.workloads[t] = w
		} else {
			e.workloads[t] = workload.Idle{}
		}
		e.idle[t] = workload.Idle{}

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
			e.engines[t] = eng
		}
		if e.injectors[t] != nil {
			pol = e.injectors[t].Policy(pol)
		}
		e.policies[t] = pol
	}
	return e
}

// SetMetrics attaches fleet telemetry (nil detaches).
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// decideAll runs every tenant's control decision for one step, through
// the tenant's own (possibly fault-wrapped) policy: the call sim.Run makes
// at a period boundary.
func (e *Engine) decideAll(step int) {
	for t, p := range e.policies {
		e.ins[t] = p.Decide(step, e.pw[t])
	}
}

// Run executes the fleet to MaxTicks and returns one result per tenant.
// The loop is sim.Run transcribed over the bank: identical per-tenant
// phase order (step machine → observe sensor → period boundary: read,
// decide, actuate), so every tenant's recorded trace matches its scalar
// twin's bit for bit. Run is Start + StepPeriod-to-exhaustion + Results;
// incremental callers (mayad's scheduler) drive the three
// directly so admissions and evictions can interleave with the run.
func (e *Engine) Run() []TenantResult {
	e.Start()
	for e.StepPeriod() {
	}
	return e.Results()
}

// Start runs the initial decision and the unrecorded warmup, then arms
// recording: after Start, StepPeriod advances the recorded run one
// control period at a time. Start may be called once.
func (e *Engine) Start() {
	if e.started {
		panic("fleet: Engine.Start called twice")
	}
	e.started = true
	spec := e.spec
	T := spec.Tenants
	e.res = make([]TenantResult, T)
	for t := range e.res {
		e.res[t].FinishedTick = -1
	}
	e.step = 0

	// Initial decision before any power is read.
	for t := range e.pw {
		e.pw[t] = 0
	}
	e.decideAll(e.step)
	e.bank.SetInputsAll(e.ins)

	// Unrecorded warmup: the defense regulates the idle fleet.
	for tick := 0; tick < spec.WarmupTicks; {
		n := phaseTicks(tick, spec.WarmupTicks, spec.PeriodTicks)
		e.stepMachines(e.idle, tick, n, false)
		tick += n
		if tick%spec.PeriodTicks == 0 {
			for t := range e.sensors {
				e.pw[t] = e.sensors[t].ReadW()
			}
			e.step++
			e.decideAll(e.step)
			e.bank.SetInputsAll(e.ins)
		}
	}

	e.startEnergy = make([]float64, T)
	for t := 0; t < T; t++ {
		e.startEnergy[t] = e.bank.Machine(t).TrueEnergyJ()
		e.res[t].FirstStep = e.step
		e.res[t].InputTrace = append(e.res[t].InputTrace, e.bank.Inputs(t))
	}
}

// StepPeriod advances the recorded run by one control period (or the
// trailing partial period when MaxTicks is not a period multiple) and
// reports whether ticks remain. It must follow Start.
//
// The period's machine ticks run as one phase (stepMachines); sensing,
// the control decision and actuation follow, and each phase timer reads
// the clock once.
func (e *Engine) StepPeriod() bool {
	if !e.started {
		panic("fleet: Engine.StepPeriod before Start")
	}
	spec := e.spec
	T := spec.Tenants
	if e.tick >= spec.MaxTicks {
		return false
	}
	res := e.res
	tPhase := e.clock()
	n := phaseTicks(e.tick, spec.MaxTicks, spec.PeriodTicks)
	e.stepMachines(e.workloads, e.tick, n, true)
	e.tick += n
	if e.metrics != nil {
		e.metrics.Ticks.Add(uint64(T * n))
		tNow := e.clock()
		e.metrics.MachineNs.Add(uint64(tNow - tPhase))
		tPhase = tNow
	}
	if e.tick%spec.PeriodTicks == 0 {
		for t := 0; t < T; t++ {
			e.pw[t] = e.sensors[t].ReadW()
			if !e.dead[t] {
				res[t].DefenseSamples = append(res[t].DefenseSamples, e.pw[t])
			}
		}
		if e.metrics != nil {
			tNow := e.clock()
			e.metrics.SenseNs.Add(uint64(tNow - tPhase))
			tPhase = tNow
		}
		e.step++
		e.decideAll(e.step)
		if e.metrics != nil {
			e.metrics.Periods.Inc()
			tNow := e.clock()
			e.metrics.ControlNs.Add(uint64(tNow - tPhase))
			tPhase = tNow
		}
		e.bank.SetInputsAll(e.ins)
		for t := 0; t < T; t++ {
			if !e.dead[t] {
				res[t].InputTrace = append(res[t].InputTrace, e.bank.Inputs(t))
			}
		}
		if e.metrics != nil {
			e.metrics.ActuateNs.Add(uint64(e.clock() - tPhase))
		}
	}
	return e.tick < spec.MaxTicks
}

// Readings returns the latest period boundary's sensor readings, one per
// slot, and the step whose decisions they fed. The slice is the engine's
// own, overwritten at the next boundary. The step advances only at a
// boundary, so a caller that remembers it sees each period once; right
// after Start the readings are the unrecorded warmup's.
func (e *Engine) Readings() (step int, powerW []float64) { return e.step, e.pw }

// phaseTicks is the length of the machine phase starting at tick: up to
// the next period boundary, or to end if that comes first.
func phaseTicks(tick, end, period int) int {
	return min(period-tick%period, end-tick)
}

// blockTenants is how many tenants stepMachines carries through the whole
// phase at a time. A block's machines, workloads, noise streams and trace
// tails stay in the core's first-level cache across the phase's ticks,
// where hundreds of tenants would be fetched from further out on every
// tick. On a 2-vCPU Xeon, blocks of 16 cut the machine phase by 10–15 %
// against both single tenants (call overhead) and ranges of hundreds of
// tenants (cache misses).
const blockTenants = 16

// stepMachines runs n machine ticks of every tenant, tenant t running
// ws[t], starting at tick: the sensor observes each tick and, when rec is
// set, the tick lands in the tenant's trace. Tenants step a block at a
// time through the whole phase. A tenant touches only its own machine,
// workload, sensor and result, and keeps the statement order of sim.Run's
// tick loop, so the blocking never shows in a result.
func (e *Engine) stepMachines(ws []workload.Workload, tick, n int, rec bool) {
	T, res := e.spec.Tenants, e.res
	ticks := rec && !e.spec.SkipTickTraces
	for blo := 0; blo < T; blo += blockTenants {
		bhi := min(blo+blockTenants, T)
		for k := 0; k < n; k++ {
			e.bank.StepRange(blo, bhi, ws, e.stepRes)
			for t := blo; t < bhi; t++ {
				r := e.stepRes[t]
				e.sensors[t].Observe(r)
				if !rec || e.dead[t] {
					continue
				}
				if ticks {
					res[t].TickPowerW = append(res[t].TickPowerW, r.PowerW)
					res[t].TickWallW = append(res[t].TickWallW, r.WallW)
				}
				if r.Finished && res[t].FinishedTick < 0 {
					res[t].FinishedTick = int64(tick+k) + 1
				}
			}
		}
	}
}

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
	res := e.res
	for t := 0; t < e.spec.Tenants; t++ {
		if e.dead[t] {
			continue
		}
		res[t].EnergyJ = e.bank.Machine(t).TrueEnergyJ() - e.startEnergy[t]
		res[t].Seconds = float64(e.tick) * e.spec.Config.TickSeconds
		if e.engines != nil {
			res[t].Targets = e.engines[t].Targets
			res[t].Flight = e.engines[t].Flight()
		}
		if e.injectors[t] != nil {
			res[t].Stats = e.injectors[t].Stats()
		}
	}
	return res
}

// Evict stops recording slot t and releases its accumulated buffers. The
// slot's machine and controller keep stepping — tenants are fully
// independent, so the survivors' traces are unchanged whether an evicted
// neighbor steps or not, and continuing to step costs no extra code path.
// Evicting every slot leaves a bank that is pure overhead; the owner
// should drop it.
func (e *Engine) Evict(t int) {
	if e.dead[t] {
		return
	}
	e.dead[t] = true
	e.alive--
	if e.res != nil {
		e.res[t] = TenantResult{}
	}
}

// Alive reports how many slots have not been evicted.
func (e *Engine) Alive() int { return e.alive }
