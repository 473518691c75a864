// Package difftest is the fleet engine's equivalence proof harness: for
// any (machine config, defense kind, fault plan, seed, tenant count, tick
// count) it runs the batched fleet and, per tenant, an independent scalar
// core.Engine/sim.Run with the same derived seeds, and asserts the two
// produce bit-for-bit identical traces, flight records, and guard
// decisions. The scalar side is composed purely from the untouched
// reference pieces (sim.Machine, sim.Run, fault wrappers), so a pass means
// the batched kernels changed nothing but the speed — the same pinning
// discipline as internal/nn's batch tests, extended to a whole closed-loop
// system.
package difftest

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/defense"
	"github.com/maya-defense/maya/internal/fault"
	"github.com/maya-defense/maya/internal/fleet"
	"github.com/maya-defense/maya/internal/sim"
	"github.com/maya-defense/maya/internal/telemetry"
	"github.com/maya-defense/maya/internal/workload"
)

// Case is one differential scenario.
type Case struct {
	Name    string
	Config  sim.Config
	Kind    defense.Kind
	Tenants int
	Ticks   int
	Warmup  int
	Seed    uint64
	Plan    fault.Plan
	// Scale is the per-tenant workload scale (blackscholes); 0 runs the
	// fleet idle.
	Scale float64
	// Flight, when > 0, attaches per-tenant flight recorders of that
	// capacity (Maya kinds).
	Flight int
	// Guard attaches core.DefaultGuard (Maya kinds), exercising the
	// sanitize/hold/reinit decisions under faults.
	Guard bool
}

// designs caches one synthesized artifact per machine config: synthesis is
// the expensive part and equivalence does not depend on design quality, so
// a shortened excitation keeps the suite fast.
var designs struct {
	mu sync.Mutex
	m  map[string]*core.Design
}

// DesignFor returns the cached Maya artifact for cfg.
func DesignFor(cfg sim.Config) (*core.Design, error) {
	designs.mu.Lock()
	defer designs.mu.Unlock()
	if d, ok := designs.m[cfg.Name]; ok {
		return d, nil
	}
	opts := core.DefaultDesignOptions()
	opts.ExcitationTicks = 4000
	d, err := core.DesignFor(cfg, opts)
	if err != nil {
		return nil, err
	}
	if designs.m == nil {
		designs.m = make(map[string]*core.Design)
	}
	designs.m[cfg.Name] = d
	return d, nil
}

func (c Case) maya() bool {
	return c.Kind == defense.MayaConstant || c.Kind == defense.MayaGS
}

func (c Case) newWorkload() workload.Workload {
	if c.Scale <= 0 {
		return workload.Idle{}
	}
	return workload.NewApp("blackscholes").Scale(c.Scale)
}

func (c Case) guard() *core.Guard {
	if !c.Guard {
		return nil
	}
	g := core.DefaultGuard(c.Config)
	return &g
}

// scalarTenant is one tenant's reference run, assembled exactly as the
// fleet assembles it — same derived seeds, same wiring order — but from
// the scalar pieces.
type scalarTenant struct {
	res     sim.RunResult
	targets []float64
	flight  *telemetry.FlightRecorder
	stats   fault.Stats
}

// runScalar runs each tenant independently through the scalar reference
// path.
func runScalar(c Case) ([]scalarTenant, error) {
	var art *core.Design
	if c.maya() {
		var err error
		if art, err = DesignFor(c.Config); err != nil {
			return nil, err
		}
	}
	d := defense.NewDesign(c.Kind, c.Config, art, 20)
	guard := c.guard()
	out := make([]scalarTenant, c.Tenants)
	for t := 0; t < c.Tenants; t++ {
		ms, ws, ps, fs := fleet.TenantSeeds(c.Seed, t)
		m := sim.NewMachine(c.Config, ms)
		var inj *fault.Injector
		if !c.Plan.Empty() {
			inj = fault.MustNew(c.Plan, fs)
			inj.Attach(m)
		}
		var sensor sim.PowerSensor = sim.NewRAPLSensor(m)
		if inj != nil {
			sensor = inj.Sensor(sensor)
		}
		w := c.newWorkload()
		w.Reset(ws)
		pol := d.Policy(ps)
		var eng *core.Engine
		if c.maya() {
			eng = pol.(*core.Engine)
			if guard != nil {
				eng.SetGuard(guard)
			}
			if c.Flight > 0 {
				eng.SetFlight(telemetry.NewFlightRecorder(c.Flight))
			}
		}
		if inj != nil {
			pol = inj.Policy(pol)
		}
		res := sim.Run(m, w, pol, sim.RunSpec{
			ControlPeriodTicks: 20,
			MaxTicks:           c.Ticks,
			WarmupTicks:        c.Warmup,
			DefenseSensor:      sensor,
		})
		out[t] = scalarTenant{res: res}
		if eng != nil {
			out[t].targets = eng.Targets
			out[t].flight = eng.Flight()
		}
		if inj != nil {
			out[t].stats = inj.Stats()
		}
	}
	return out, nil
}

// runBatched runs the whole case through the fleet engine.
func runBatched(c Case) ([]fleet.TenantResult, error) {
	spec, err := c.spec()
	if err != nil {
		return nil, err
	}
	return fleet.New(spec).Run(), nil
}

// spec is the fleet.Spec of the case's batched run.
func (c Case) spec() (fleet.Spec, error) {
	var art *core.Design
	if c.maya() {
		var err error
		if art, err = DesignFor(c.Config); err != nil {
			return fleet.Spec{}, err
		}
	}
	spec := fleet.Spec{
		Config:         c.Config,
		Kind:           c.Kind,
		Art:            art,
		PeriodTicks:    20,
		Tenants:        c.Tenants,
		BaseSeed:       c.Seed,
		Plan:           c.Plan,
		Guard:          c.guard(),
		FlightCapacity: c.Flight,
		WarmupTicks:    c.Warmup,
		MaxTicks:       c.Ticks,
	}
	if c.Scale > 0 {
		spec.NewWorkload = c.newWorkload
	}
	return spec, nil
}

// Diff runs both paths and returns nil only if every tenant is bit-for-bit
// identical across every recorded quantity.
func Diff(c Case) error {
	scalar, err := runScalar(c)
	if err != nil {
		return err
	}
	batched, err := runBatched(c)
	if err != nil {
		return err
	}
	if len(scalar) != len(batched) {
		return fmt.Errorf("%s: tenant counts differ: %d vs %d", c.Name, len(scalar), len(batched))
	}
	for t := range scalar {
		if err := diffTenant(scalar[t], batched[t]); err != nil {
			return fmt.Errorf("%s: tenant %d: %w", c.Name, t, err)
		}
	}
	return nil
}

func diffTenant(s scalarTenant, b fleet.TenantResult) error {
	if err := diffFloats("defense samples", s.res.DefenseSamples, b.DefenseSamples); err != nil {
		return err
	}
	if err := diffFloats("tick power", s.res.TickPowerW, b.TickPowerW); err != nil {
		return err
	}
	if err := diffFloats("tick wall power", s.res.TickWallW, b.TickWallW); err != nil {
		return err
	}
	if err := diffFloats("mask targets", s.targets, b.Targets); err != nil {
		return err
	}
	if len(s.res.InputTrace) != len(b.InputTrace) {
		return fmt.Errorf("input trace lengths differ: %d vs %d", len(s.res.InputTrace), len(b.InputTrace))
	}
	for i := range s.res.InputTrace {
		sv, bv := s.res.InputTrace[i], b.InputTrace[i]
		if math.Float64bits(sv.FreqGHz) != math.Float64bits(bv.FreqGHz) ||
			math.Float64bits(sv.Idle) != math.Float64bits(bv.Idle) ||
			math.Float64bits(sv.Balloon) != math.Float64bits(bv.Balloon) {
			return fmt.Errorf("input trace[%d] differs: %+v vs %+v", i, sv, bv)
		}
	}
	if s.res.FinishedTick != b.FinishedTick {
		return fmt.Errorf("finished tick differs: %d vs %d", s.res.FinishedTick, b.FinishedTick)
	}
	if s.res.FirstStep != b.FirstStep {
		return fmt.Errorf("first step differs: %d vs %d", s.res.FirstStep, b.FirstStep)
	}
	if math.Float64bits(s.res.EnergyJ) != math.Float64bits(b.EnergyJ) {
		return fmt.Errorf("energy differs: %x vs %x", math.Float64bits(s.res.EnergyJ), math.Float64bits(b.EnergyJ))
	}
	if s.stats != b.Stats {
		return fmt.Errorf("fault stats differ: %v vs %v", s.stats, b.Stats)
	}
	if (s.flight == nil) != (b.Flight == nil) {
		return fmt.Errorf("flight recorder presence differs")
	}
	if s.flight != nil {
		var sb, bb bytes.Buffer
		if err := s.flight.Flush(&sb); err != nil {
			return fmt.Errorf("scalar flight flush: %w", err)
		}
		if err := b.Flight.Flush(&bb); err != nil {
			return fmt.Errorf("batched flight flush: %w", err)
		}
		if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
			return fmt.Errorf("flight records differ:\n%s", firstDiffLine(sb.Bytes(), bb.Bytes()))
		}
	}
	return nil
}

func diffFloats(what string, s, b []float64) error {
	if len(s) != len(b) {
		return fmt.Errorf("%s lengths differ: %d vs %d", what, len(s), len(b))
	}
	for i := range s {
		if math.Float64bits(s[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s[%d] differs: %x (%g) vs %x (%g)",
				what, i, math.Float64bits(s[i]), s[i], math.Float64bits(b[i]), b[i])
		}
	}
	return nil
}

// firstDiffLine locates the first JSONL line where two flight flushes
// diverge.
func firstDiffLine(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\nscalar:  %s\nbatched: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
