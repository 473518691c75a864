// Package fleet steps many defended machines in one process: a structure-
// of-arrays batched engine over the scalar building blocks. Per-tenant
// state — controller vectors, integrators, machine power-model state, mask
// RNG positions — lives column-wise in contiguous slabs (control.Bank,
// sim.MachineBank), so one control period runs the machine model and the
// controller as batched kernels that load each shared coefficient once per
// fleet instead of once per machine; the period's machine ticks step in
// contiguous tenant ranges, in parallel on a large bank.
//
// The batched path is pinned bit-for-bit to the scalar reference: every
// tenant of a fleet run produces exactly the traces, flight records, and
// guard decisions of an independent scalar core.Engine/sim.Run with the
// same derived seeds. The difftest subpackage is that proof, table-driven
// across all five defenses, fault plans, and tenant counts; golden_test.go
// pins a committed 16-tenant trace. The scalar path stays untouched as the
// reference implementation — the fleet engine reuses its exact decision
// code (core.Engine.BeginStep/FinishStep, fault.Injector) and batches only
// the arithmetic between them.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/maya-defense/maya/internal/control"
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
// from one goroutine at a time. Start and StepPeriod fan each control
// period's machine ticks out over tenant ranges on worker goroutines and
// join them before returning (see stepMachines); everything else runs on
// the caller. Concurrent observers read only through the telemetry
// registry and the Spill (see race tests).
type Engine struct {
	spec Spec
	bank *sim.MachineBank

	// Maya path: per-tenant engines share one batched controller bank.
	// The engines carry everything per-tenant and sequential (mask stream,
	// dither, NLMS estimator, guard hold state, flight); the bank carries
	// the controller state slabs that StepAll batches.
	engines []*core.Engine
	ctlBank *control.Bank

	// Non-Maya path: plain per-tenant policies (fault-wrapped as needed).
	policies []sim.Policy

	injectors []*fault.Injector
	sensors   []sim.PowerSensor
	workloads []workload.Workload

	// Timing-fault bookkeeping for the Maya path, mirroring
	// fault.FaultyPolicy's prev/prevPower fields per tenant.
	prevIn    []sim.Inputs
	prevPower []float64

	// Per-period scratch.
	ins     []sim.Inputs
	pw      []float64
	deltaY  []float64
	active  []bool
	pres    []core.StepPre
	stepRes []sim.StepResult
	idle    []workload.Workload

	// Machine-phase fan-out (stepMachines): the phase in flight, the next
	// range a worker claims, and the join. worker is built once, so
	// starting a goroutine per phase allocates nothing.
	phase     machinePhase
	nextRange atomic.Int32
	wg        sync.WaitGroup
	worker    func()

	metrics *Metrics
	spill   *Spill

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
		prevIn:    make([]sim.Inputs, T),
		prevPower: make([]float64, T),
		ins:       make([]sim.Inputs, T),
		pw:        make([]float64, T),
		deltaY:    make([]float64, T),
		active:    make([]bool, T),
		pres:      make([]core.StepPre, T),
		stepRes:   make([]sim.StepResult, T),
		idle:      make([]workload.Workload, T),
		dead:      make([]bool, T),
		alive:     T,
	}
	e.worker = func() {
		defer e.wg.Done()
		e.stepRanges()
	}
	if maya {
		e.engines = make([]*core.Engine, T)
	} else {
		e.policies = make([]sim.Policy, T)
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
			e.injectors[t].AttachHooks(e.bank.Tenant(t))
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
		} else {
			if e.injectors[t] != nil {
				pol = e.injectors[t].Policy(pol)
			}
			e.policies[t] = pol
		}
	}
	if maya {
		e.ctlBank = control.NewBank(spec.Art.Controller, T)
		if spec.Guard != nil {
			e.ctlBank.SetIntegratorClamp(spec.Guard.IntegratorClamp)
		}
	}
	return e
}

// SetMetrics attaches fleet telemetry (nil detaches).
func (e *Engine) SetMetrics(m *Metrics) { e.metrics = m }

// SetSpill attaches a concurrent-reader spill buffer: every control period
// the engine pushes one Sample per tenant into it (nil detaches).
func (e *Engine) SetSpill(s *Spill) { e.spill = s }

// Tenants returns the fleet size.
func (e *Engine) Tenants() int { return e.spec.Tenants }

// decideAll runs every tenant's control decision for one step: the
// fleet-path equivalent of calling each tenant's (possibly fault-wrapped)
// policy. On the Maya path the controller arithmetic for the whole fleet
// runs as one batched control.Bank.StepAll between the per-tenant
// BeginStep/FinishStep halves; everything else stays the scalar code.
func (e *Engine) decideAll(step int) {
	if e.engines == nil {
		for t, p := range e.policies {
			e.ins[t] = p.Decide(step, e.pw[t])
		}
		return
	}
	anyFault := false
	for t, eng := range e.engines {
		pw := e.pw[t]
		if inj := e.injectors[t]; inj != nil {
			anyFault = true
			miss, stale := inj.TimingDecision(step)
			if miss {
				// The wakeup never happened: hold the previous command;
				// the engine (mask, controller, estimator) does not advance.
				e.prevPower[t] = e.pw[t]
				e.ins[t] = e.prevIn[t]
				e.active[t] = false
				continue
			}
			if stale {
				pw = e.prevPower[t]
			}
			e.prevPower[t] = e.pw[t]
		}
		e.active[t] = true
		e.pres[t] = eng.BeginStep(step, pw)
		e.deltaY[t] = e.pres[t].DeltaY
	}
	active := e.active
	if !anyFault {
		active = nil
	}
	e.ctlBank.StepAll(e.deltaY, active)
	for t, eng := range e.engines {
		if !e.active[t] {
			continue
		}
		in := eng.FinishStep(step, e.pres[t], e.ctlBank.U(t), e.ctlBank.Tenant(t))
		e.ins[t] = in
		e.prevIn[t] = in
	}
}

// Run executes the fleet to MaxTicks and returns one result per tenant.
// The loop is sim.Run transcribed over the bank: identical per-tenant
// phase order (step machine → observe sensor → period boundary: read,
// decide, actuate), so every tenant's recorded trace matches its scalar
// twin's bit for bit. Run is Start + StepPeriod-to-exhaustion + Results;
// incremental callers (cmd/mayad's shard scheduler) drive the three
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
	if e.metrics != nil {
		e.metrics.Tenants.Set(float64(T))
	}
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
		e.startEnergy[t] = e.bank.TrueEnergyJ(t)
		e.res[t].FirstStep = e.step
		e.res[t].InputTrace = append(e.res[t].InputTrace, e.bank.Inputs(t))
	}
}

// StepPeriod advances the recorded run by one control period (or the
// trailing partial period when MaxTicks is not a period multiple) and
// reports whether ticks remain. It must follow Start.
//
// The period's machine ticks run as one phase (stepMachines); sensing,
// the control decision, actuation, and spill pushes follow on the calling
// goroutine, and each phase timer reads the clock once.
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
		if e.spill != nil {
			for t := 0; t < T; t++ {
				if !e.dead[t] {
					e.spill.push(Sample{Step: e.step, Tenant: t, PowerW: e.pw[t]})
				}
			}
		}
	}
	return e.tick < spec.MaxTicks
}

// phaseTicks is the length of the machine phase starting at tick: up to
// the next period boundary, or to end if that comes first.
func phaseTicks(tick, end, period int) int {
	return min(period-tick%period, end-tick)
}

// minTenantsPerWorker is the smallest tenant range worth its own
// goroutine. A tenant costs a few microseconds per period, so a range this
// size outweighs a goroutine's start and join many times over, and a bank
// of one, or of a few, never leaves the calling goroutine.
const minTenantsPerWorker = 64

// machinePhase is the machine phase in flight, as its workers read it.
type machinePhase struct {
	ws      []workload.Workload
	tick, n int
	rec     bool
	ranges  int // the bank splits into this many contiguous tenant ranges
}

// stepMachines runs n machine ticks of every tenant, tenant t running
// ws[t], starting at tick: the sensor observes each tick and, when rec is
// set, the tick lands in the tenant's trace. The bank splits into one
// contiguous tenant range per worker, up to GOMAXPROCS of them; the
// calling goroutine is one worker and starts the others. A range touches
// only its own columns (machine slabs, workload, sensor, result), and
// every tenant keeps the statement order of sim.Run's tick loop, so the
// split never shows in a result. The shared clock advances once, after
// every range is done.
func (e *Engine) stepMachines(ws []workload.Workload, tick, n int, rec bool) {
	workers := max(1, min(runtime.GOMAXPROCS(0), e.spec.Tenants/minTenantsPerWorker))
	e.phase = machinePhase{ws: ws, tick: tick, n: n, rec: rec, ranges: workers}
	e.nextRange.Store(0)
	for w := 1; w < workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	e.stepRanges()
	e.wg.Wait()
	e.bank.AdvanceClock(n)
}

// stepRanges claims the phase's ranges one at a time, each claim going to
// exactly one worker, and steps them until none are left.
func (e *Engine) stepRanges() {
	T, ranges := e.spec.Tenants, e.phase.ranges
	for {
		r := int(e.nextRange.Add(1)) - 1
		if r >= ranges {
			return
		}
		e.stepRange(r*T/ranges, (r+1)*T/ranges)
	}
}

// blockTenants is how many tenants stepRange carries through the whole
// phase at a time. A block's machine columns, workloads, noise streams and
// trace tails stay in the core's first-level cache across the phase's
// ticks, where a range of hundreds of tenants would be fetched from
// further out on every tick. On a 2-vCPU Xeon, blocks of 16 cut the
// machine phase by 10–15 % against both single tenants (call overhead) and
// whole ranges (cache misses).
const blockTenants = 16

// stepRange steps tenants [lo, hi) through the phase, a block at a time.
func (e *Engine) stepRange(lo, hi int) {
	p, res := &e.phase, e.res
	for blo := lo; blo < hi; blo += blockTenants {
		bhi := min(blo+blockTenants, hi)
		for k := 0; k < p.n; k++ {
			e.bank.StepRange(blo, bhi, p.ws, e.stepRes)
			for t := blo; t < bhi; t++ {
				r := e.stepRes[t]
				e.sensors[t].Observe(r)
				if !p.rec || e.dead[t] {
					continue
				}
				res[t].TickPowerW = append(res[t].TickPowerW, r.PowerW)
				res[t].TickWallW = append(res[t].TickWallW, r.WallW)
				if r.Finished && res[t].FinishedTick < 0 {
					res[t].FinishedTick = int64(p.tick+k) + 1
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
		res[t].EnergyJ = e.bank.TrueEnergyJ(t) - e.startEnergy[t]
		res[t].Seconds = float64(len(res[t].TickPowerW)) * e.spec.Config.TickSeconds
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
// slot's machine and controller keep stepping — tenant slabs are fully
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

// Step reports the control-step counter (warmup steps included); Tick
// reports recorded machine ticks consumed, up to Spec.MaxTicks.
func (e *Engine) Step() int { return e.step }

// Tick reports how many recorded machine ticks have run.
func (e *Engine) Tick() int { return e.tick }

// Engines returns the per-tenant engines (Maya kinds; nil otherwise).
func (e *Engine) Engines() []*core.Engine { return e.engines }
