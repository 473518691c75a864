// Package mayad is the fleet-defense daemon behind cmd/mayad: a
// long-running server that admits tenants — (machine, defense, workload,
// seed) quadruples — over HTTP, steps them on a sharded scheduler built
// from internal/fleet banks, and serves their traces, flight records, and
// telemetry back out.
//
// Determinism is the core contract: a tenant admitted with (seed S, index
// I) produces exactly the trace of tenant I in a solo `mayactl -fleet`
// run with base seed S — byte-identical at any shard count, any bank
// packing, and regardless of which other tenants share the daemon. The
// fleet engine's per-tenant independence (pinned by its differential
// tests) makes this structural: each bank slot carries
// fleet.TenantSeeds(S, I) via Spec.SeedAt, so neither scheduling order
// nor co-residency can leak into a tenant's samples.
//
// Each shard advances its banks in scheduler passes of one control
// period. A pass fans the banks out over min(GOMAXPROCS, banks) workers,
// each claiming one bank at a time: it starts a new bank (the unrecorded
// warmup), steps it one period, publishes its tenants' progress, and once
// the run is over reads the results and flushes the flight JSONL. The
// rest stays serial on the shard goroutine: admission, eviction and drain
// commands, design lookup, every Server.mu state transition (published
// after the join, in bank order), and dropping finished banks. Banks share
// only atomic counters and read-only designs, so the fan-out, like the
// shard count, never shows in a trace; a bank with many tenants still
// fans its own machine ticks out inside the fleet engine. Banks record
// period-level traces only (fleet.Spec.SkipTickTraces).
//
// The daemon degrades under load instead of falling over: admissions pass
// through bounded per-shard queues and a MaxTenants cap, and excess
// requests are shed with 503 + Retry-After (counted in
// mayad_admission_shed_total). Shutdown is a graceful drain: shards stop
// at a period boundary, in-flight banks are collected, in parallel, into
// bit-identical prefixes of their full runs, and tenant traces are
// spooled to disk.
package mayad

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/trace"
	"github.com/maya-defense/maya/internal/workload"
)

// Config sizes the daemon.
type Config struct {
	// Shards is the number of schedulers (default 1), each with its own
	// banks and passes. Tenants are assigned round-robin; per-tenant
	// determinism makes the count unobservable in any trace.
	Shards int
	// MaxTenants caps tenants resident in the daemon (queued + running);
	// admissions beyond it are shed with 503 (default 64).
	MaxTenants int
	// QueueDepth bounds each shard's command queue; a full queue sheds
	// the admission instead of blocking the HTTP handler (default 16).
	QueueDepth int
	// SpillLimit bounds each bank's spill buffer (drop-oldest); 0 uses
	// 4096.
	SpillLimit int
	// SpoolDir, when non-empty, receives one trace file per finished
	// tenant on drain (tenant-<id>.mayt, plus tenant-<id>.flight.jsonl
	// for Maya tenants with flight recording).
	SpoolDir string
	// Pace, when > 0, sleeps this long between scheduler passes so a
	// small fleet does not spin a core; 0 runs flat out (tests, CI).
	Pace time.Duration
	// DesignFor synthesizes the Maya artifact for a machine config. Nil
	// uses core.DesignFor with core.DefaultDesignOptions — the exact
	// artifact mayactl builds, which the byte-identity contract needs.
	// Tests inject a cheaper synthesis here.
	DesignFor func(sim.Config) (*core.Design, error)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.SpillLimit <= 0 {
		c.SpillLimit = 4096
	}
	if c.DesignFor == nil {
		c.DesignFor = func(cfg sim.Config) (*core.Design, error) {
			return core.DesignFor(cfg, core.DefaultDesignOptions())
		}
	}
	return c
}

// TenantSpec is the admission request body: everything that defines one
// defended tenant. The zero value of each field selects the mayactl
// default, so `{}` admits the same run `mayactl -fleet 1` produces.
type TenantSpec struct {
	// Machine is a built-in preset name (sys1, sys2, sys3; default sys1).
	Machine string `json:"machine,omitempty"`
	// Defense is a design name (baseline, noisy, random, constant, gs;
	// default gs).
	Defense string `json:"defense,omitempty"`
	// Workload uses mayactl's grammar: an app label, video/<name>,
	// web/<name>, instr/<name>, or idle (default blackscholes).
	Workload string `json:"workload,omitempty"`
	// Scale multiplies workload phase work (default 0.2).
	Scale float64 `json:"scale,omitempty"`
	// Seed roots the tenant's seed derivation (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Index selects which derived tenant stream this run carries: the
	// tenant reproduces slot Index of a `mayactl -fleet` run with base
	// seed Seed.
	Index int `json:"index,omitempty"`
	// Seconds is the recorded duration (default 20); MaxTicks overrides
	// it when positive. The recorded run is 1 to 1<<20 ticks.
	Seconds  float64 `json:"seconds,omitempty"`
	MaxTicks int     `json:"max_ticks,omitempty"`
	// WarmupTicks is the unrecorded warmup (default 2000, mayactl's
	// value; pass a negative value for none), at most 1<<20 ticks.
	WarmupTicks int `json:"warmup_ticks,omitempty"`
	// Faults names a canned fault plan (empty = no faults).
	Faults string `json:"faults,omitempty"`
	// Flight attaches a flight recorder (Maya defenses only).
	Flight bool `json:"flight,omitempty"`
}

// Tenant lifecycle states.
const (
	StateQueued  = "queued"  // admitted, waiting for its shard to bank it
	StateRunning = "running" // stepping in a fleet bank
	StateDone    = "done"    // ran to MaxTicks; results held
	StateDrained = "drained" // stopped early by daemon drain; prefix results held
	StateEvicted = "evicted" // removed by DELETE before finishing
	StateFailed  = "failed"  // admission resolved but the run could not start
)

// tenant is one admitted run. Mutable fields are guarded by Server.mu;
// the shard goroutine takes the lock briefly at each transition.
type tenant struct {
	id    int
	spec  TenantSpec // normalized (defaults applied)
	shard int

	// Resolved at admission (validation) time.
	cfg  sim.Config
	kind defense.Kind
	plan fault.Plan

	state string
	err   string
	// res holds the finished result (done/drained).
	res fleet.TenantResult
	// flight is the tenant's flight trace, flushed to JSONL bytes when
	// its bank's run ends.
	flight []byte
	// tick is the recorded run's progress in machine ticks. The pass
	// worker stepping the tenant's bank stores it after every period and
	// status readers load it, so neither takes Server.mu for it.
	tick atomic.Int64
}

// Server is the daemon: admission control, the sharded scheduler, and the
// result store. Create with New, launch with Start, serve Handler over
// HTTP (cmd/mayad mounts it on debugsrv), stop with Drain.
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	met     *metrics
	fleetM  *fleet.Metrics
	designs *designCache

	mu       sync.Mutex
	tenants  map[int]*tenant
	nextID   int
	draining bool
	resident int // queued + running tenants, vs cfg.MaxTenants

	shards []*shard
	wg     sync.WaitGroup

	drainOnce sync.Once
}

// New builds a stopped server; metrics register on reg immediately so the
// first scrape sees every series at zero.
func New(cfg Config, reg *telemetry.Registry) *Server {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		met:     newMetrics(reg),
		fleetM:  fleet.NewMetrics(reg),
		designs: &designCache{synth: cfg.DesignFor},
		tenants: make(map[int]*tenant),
	}
	s.met.Shards.Set(float64(cfg.Shards))
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(s, i))
	}
	return s
}

// Registry returns the telemetry registry the daemon's metrics live in.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Start launches the shard workers.
func (s *Server) Start() {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func(sh *shard) {
			defer s.wg.Done()
			sh.loop()
		}(sh)
	}
}

// shedError is an admission rejection the HTTP layer maps to 503 +
// Retry-After.
type shedError struct{ reason string }

func (e *shedError) Error() string { return "admission shed: " + e.reason }

// normalize applies the mayactl-default zero values.
func (sp TenantSpec) normalize() TenantSpec {
	if sp.Machine == "" {
		sp.Machine = "sys1"
	}
	if sp.Defense == "" {
		sp.Defense = "gs"
	}
	if sp.Workload == "" {
		sp.Workload = "blackscholes"
	}
	if sp.Scale <= 0 {
		sp.Scale = 0.2
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Seconds <= 0 {
		sp.Seconds = 20
	}
	// An oversized Seconds stays unconverted, since converting it could
	// overflow; resolve rejects it.
	if sp.MaxTicks <= 0 && sp.Seconds*1000 <= maxSpecTicks {
		sp.MaxTicks = int(sp.Seconds * 1000)
	}
	switch {
	case sp.WarmupTicks == 0:
		sp.WarmupTicks = 2000
	case sp.WarmupTicks < 0:
		sp.WarmupTicks = 0
	}
	return sp
}

// maxSpecTicks bounds both a tenant's recorded run and its warmup: the
// run length fleet.New and sim.Run default to, about 17 simulated
// minutes. It keeps one admission from claiming unbounded trace memory or
// holding its shard in warmup indefinitely.
const maxSpecTicks = 1 << 20

// resolve validates a normalized spec: a recorded run of 1 to maxSpecTicks
// ticks, a warmup of at most maxSpecTicks, names against the registries.
func (sp TenantSpec) resolve() (sim.Config, defense.Kind, fault.Plan, error) {
	switch {
	case !(sp.Seconds*1000 <= maxSpecTicks): // negated so NaN fails too
		return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("seconds %g exceeds the %d-tick limit", sp.Seconds, maxSpecTicks)
	case sp.MaxTicks <= 0: // a Seconds under one tick converts to 0 ticks
		return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("seconds %g is shorter than one tick", sp.Seconds)
	case sp.MaxTicks > maxSpecTicks:
		return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("max_ticks %d exceeds the %d-tick limit", sp.MaxTicks, maxSpecTicks)
	case sp.WarmupTicks > maxSpecTicks:
		return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("warmup_ticks %d exceeds the %d-tick limit", sp.WarmupTicks, maxSpecTicks)
	}
	cfg, ok := sim.PresetByName(sp.Machine)
	if !ok {
		return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("unknown machine %q", sp.Machine)
	}
	kind, ok := defense.KindByName(sp.Defense)
	if !ok {
		return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("unknown defense %q", sp.Defense)
	}
	if _, err := workload.New(sp.Workload, sp.Scale); err != nil {
		return sim.Config{}, 0, fault.Plan{}, err
	}
	var plan fault.Plan
	if sp.Faults != "" {
		plan, ok = fault.PlanByName(sp.Faults)
		if !ok {
			return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("unknown fault plan %q", sp.Faults)
		}
	}
	if sp.Flight && !kind.IsMaya() {
		return sim.Config{}, 0, fault.Plan{}, fmt.Errorf("flight recording needs a Maya defense (constant or gs), not %q", sp.Defense)
	}
	return cfg, kind, plan, nil
}

// Admit validates and enqueues a tenant. It returns the assigned id, or a
// *shedError when the daemon is draining, full, or the shard queue has no
// room — the caller sheds with 503 — or a plain error for an invalid spec
// (400).
func (s *Server) Admit(sp TenantSpec) (int, error) {
	sp = sp.normalize()
	cfg, kind, plan, err := sp.resolve()
	if err != nil {
		return 0, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.Shed.Inc()
		return 0, &shedError{"draining"}
	}
	if s.resident >= s.cfg.MaxTenants {
		s.mu.Unlock()
		s.met.Shed.Inc()
		return 0, &shedError{"tenant capacity"}
	}
	id := s.nextID
	s.nextID++
	tn := &tenant{
		id: id, spec: sp, shard: id % s.cfg.Shards,
		cfg: cfg, kind: kind, plan: plan,
		state: StateQueued,
	}
	sh := s.shards[tn.shard]
	select {
	case sh.cmds <- command{admit: tn}:
	default:
		s.mu.Unlock()
		s.met.Shed.Inc()
		return 0, &shedError{"shard queue full"}
	}
	s.tenants[id] = tn
	s.resident++
	s.mu.Unlock()

	s.met.Admitted.Inc()
	s.met.Tenants.Set(float64(s.Resident()))
	return id, nil
}

// Evict removes tenant id. Finished tenants are deleted outright;
// queued/running ones are evicted through their shard (the slot keeps
// stepping unrecorded, invisible to its bank neighbors). The bool reports
// whether the tenant existed.
func (s *Server) Evict(id int) (bool, error) {
	s.mu.Lock()
	tn, ok := s.tenants[id]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	switch tn.state {
	case StateDone, StateDrained, StateEvicted, StateFailed:
		delete(s.tenants, id)
		s.mu.Unlock()
		return true, nil
	}
	sh := s.shards[tn.shard]
	select {
	case sh.cmds <- command{evict: id, hasEvict: true}:
	default:
		s.mu.Unlock()
		return true, &shedError{"shard queue full"}
	}
	s.mu.Unlock()
	s.met.Evicted.Inc()
	return true, nil
}

// Resident reports tenants currently queued or running.
func (s *Server) Resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident
}

// TenantStatus is the API view of one tenant.
type TenantStatus struct {
	ID    int        `json:"id"`
	State string     `json:"state"`
	Shard int        `json:"shard"`
	Spec  TenantSpec `json:"spec"`
	Error string     `json:"error,omitempty"`
	// Tick is the recorded run's progress in machine ticks, updated after
	// every control period the tenant's bank steps.
	Tick     int `json:"tick"`
	MaxTicks int `json:"max_ticks"`
	// Result summary, present once state is done or drained.
	EnergyJ      float64 `json:"energy_j,omitempty"`
	Seconds      float64 `json:"seconds,omitempty"`
	FinishedTick int64   `json:"finished_tick,omitempty"`
	Samples      int     `json:"samples,omitempty"`
}

func (s *Server) statusLocked(tn *tenant) TenantStatus {
	st := TenantStatus{
		ID: tn.id, State: tn.state, Shard: tn.shard, Spec: tn.spec,
		Error: tn.err, Tick: int(tn.tick.Load()), MaxTicks: tn.spec.MaxTicks,
	}
	switch tn.state {
	case StateDone, StateDrained:
		st.EnergyJ = tn.res.EnergyJ
		st.Seconds = tn.res.Seconds
		st.FinishedTick = tn.res.FinishedTick
		st.Samples = len(tn.res.DefenseSamples)
	}
	return st
}

// Status returns tenant id's status; ok is false for an unknown id.
func (s *Server) Status(id int) (TenantStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tn, ok := s.tenants[id]
	if !ok {
		return TenantStatus{}, false
	}
	return s.statusLocked(tn), true
}

// List returns every tenant's status, ordered by id.
func (s *Server) List() []TenantStatus {
	s.mu.Lock()
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, tn := range s.tenants {
		out = append(out, s.statusLocked(tn))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// result returns a finished tenant's result. ok distinguishes unknown ids
// from known-but-unfinished ones (ready false).
func (s *Server) result(id int) (tn *tenant, ready, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		return nil, false, false
	}
	if t.state != StateDone && t.state != StateDrained {
		return t, false, true
	}
	return t, true, true
}

// finishedResults snapshots every finished tenant's result ordered by
// spec Index (ties by id), the order that byte-matches `mayactl -fleet
// -csv` when the daemon holds indices 0..N-1 of one base seed.
func (s *Server) finishedResults() (results []fleet.TenantResult, ids []int) {
	s.mu.Lock()
	var fin []*tenant
	for _, tn := range s.tenants {
		if tn.state == StateDone || tn.state == StateDrained {
			fin = append(fin, tn)
		}
	}
	s.mu.Unlock()
	sort.Slice(fin, func(i, j int) bool {
		if fin[i].spec.Index != fin[j].spec.Index {
			return fin[i].spec.Index < fin[j].spec.Index
		}
		return fin[i].id < fin[j].id
	})
	for _, tn := range fin {
		results = append(results, tn.res)
		ids = append(ids, tn.spec.Index)
	}
	return results, ids
}

// setState flips a tenant's lifecycle state (shard goroutine).
func (s *Server) setState(tn *tenant, state string) {
	s.mu.Lock()
	tn.state = state
	s.mu.Unlock()
}

// transition moves a tenant to a terminal state, storing its result and
// flight bytes and releasing its residency slot.
func (s *Server) transition(tn *tenant, state string, res fleet.TenantResult, flight []byte) {
	s.mu.Lock()
	if tn.state == StateQueued || tn.state == StateRunning {
		s.resident--
	}
	tn.state = state
	tn.res = res
	tn.flight = flight
	resident := s.resident
	s.mu.Unlock()
	s.met.Tenants.Set(float64(resident))
	if state == StateDone {
		s.met.Done.Inc()
	}
}

// fail marks a tenant's run as unstartable (design synthesis failed).
func (s *Server) fail(tn *tenant, err error) {
	s.mu.Lock()
	if tn.state == StateQueued || tn.state == StateRunning {
		s.resident--
	}
	tn.state = StateFailed
	tn.err = err.Error()
	resident := s.resident
	s.mu.Unlock()
	s.met.Tenants.Set(float64(resident))
	s.met.Failed.Inc()
}

// SpillSample is one spilled control-period reading, translated from bank
// slots to tenant ids (-1 when the slot was already evicted).
type SpillSample struct {
	Shard  int     `json:"shard"`
	Tenant int     `json:"tenant"`
	Step   int     `json:"step"`
	PowerW float64 `json:"power_w"`
}

// DrainSpill empties every shard's bank spill buffers: the streaming
// observation tap. Samples older than each bank's bound have been dropped
// (drop-oldest, counted in maya_fleet_spill_dropped_total).
func (s *Server) DrainSpill() []SpillSample {
	out := []SpillSample{}
	for _, sh := range s.shards {
		out = append(out, sh.spillSamples()...)
	}
	return out
}

// Drain stops the daemon gracefully: new admissions shed with 503, every
// shard collects its banks at the next period boundary (tenant results
// become bit-identical prefixes of their full runs), and finished traces
// are spooled to Config.SpoolDir. Idempotent; blocks until the shards
// have exited and the spool is flushed.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.met.Draining.Set(1)
		for _, sh := range s.shards {
			close(sh.stop)
		}
		s.wg.Wait()
		if err := s.spool(); err != nil {
			s.met.SpoolErrors.Inc()
		}
	})
}

// spool writes every finished tenant's trace (and flight JSONL, when
// recorded) under Config.SpoolDir.
func (s *Server) spool() error {
	if s.cfg.SpoolDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.SpoolDir, 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	var fin []*tenant
	for _, tn := range s.tenants {
		if tn.state == StateDone || tn.state == StateDrained {
			fin = append(fin, tn)
		}
	}
	s.mu.Unlock()
	sort.Slice(fin, func(i, j int) bool { return fin[i].id < fin[j].id })
	var firstErr error
	for _, tn := range fin {
		d := tenantDataset(tn)
		path := filepath.Join(s.cfg.SpoolDir, fmt.Sprintf("tenant-%d.mayt", tn.id))
		if err := trace.WriteDatasetFile(path, d); err != nil && firstErr == nil {
			firstErr = err
		}
		if len(tn.flight) > 0 {
			fp := filepath.Join(s.cfg.SpoolDir, fmt.Sprintf("tenant-%d.flight.jsonl", tn.id))
			if err := os.WriteFile(fp, tn.flight, 0o644); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// tenantDataset wraps one finished tenant's period trace as a
// single-trace dataset (PeriodMS from the control period).
func tenantDataset(tn *tenant) *trace.Dataset {
	d := &trace.Dataset{ClassNames: []string{tn.spec.Workload}}
	d.Add(0, float64(PeriodTicks)*tn.cfg.TickSeconds*1000, tn.res.DefenseSamples)
	return d
}

// PeriodTicks is the control period every run uses (the paper's 20 ms).
const PeriodTicks = 20

// designCache memoizes Maya artifact synthesis per machine config name.
// Synthesis is expensive (a full excitation + identification pass), runs
// at most once per machine, and every bank on any shard shares the
// result — exactly the artifact a solo mayactl run builds.
type designCache struct {
	synth func(sim.Config) (*core.Design, error)
	mu    sync.Mutex
	byCfg map[string]*designEntry
}

type designEntry struct {
	once sync.Once
	art  *core.Design
	err  error
}

func (c *designCache) Get(cfg sim.Config) (*core.Design, error) {
	c.mu.Lock()
	if c.byCfg == nil {
		c.byCfg = make(map[string]*designEntry)
	}
	e, ok := c.byCfg[cfg.Name]
	if !ok {
		e = &designEntry{}
		c.byCfg[cfg.Name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.art, e.err = c.synth(cfg) })
	return e.art, e.err
}
