// Package defense implements the five designs compared in the paper's
// evaluation (Table V) and the trace-collection harness the attacks run
// against. Each design is a factory of sim.Policy values: policies are
// stateful, so every run gets a fresh one seeded with that run's secret.
package defense

import (
	"fmt"

	"github.com/maya-defense/maya/internal/core"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sim"
)

// Kind enumerates the Table V designs.
type Kind int

const (
	// Baseline is the high-performance insecure system without added noise.
	Baseline Kind = iota
	// NoisyBaseline fixes a random DVFS/idle/balloon level per run.
	NoisyBaseline
	// RandomInputs re-draws DVFS/idle/balloon randomly at runtime.
	RandomInputs
	// MayaConstant is Maya's formal controller with a constant mask.
	MayaConstant
	// MayaGS is the proposal: formal controller + Gaussian Sinusoid mask.
	MayaGS
)

// Kinds lists all designs in Table V order.
var Kinds = []Kind{Baseline, NoisyBaseline, RandomInputs, MayaConstant, MayaGS}

// KindNames lists the short identifiers KindByName accepts, in Kinds order.
var KindNames = []string{"baseline", "noisy", "random", "constant", "gs"}

// KindByName resolves the short command-line/API identifiers used by
// mayactl's -defense flag and mayad's admission API.
func KindByName(name string) (Kind, bool) {
	switch name {
	case "baseline":
		return Baseline, true
	case "noisy":
		return NoisyBaseline, true
	case "random":
		return RandomInputs, true
	case "constant":
		return MayaConstant, true
	case "gs":
		return MayaGS, true
	}
	return 0, false
}

// IsMaya reports whether the kind runs the formal controller (and so
// supports guards, flight recording, and mask targets).
func (k Kind) IsMaya() bool { return k == MayaConstant || k == MayaGS }

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Baseline:
		return "Baseline"
	case NoisyBaseline:
		return "Noisy Baseline"
	case RandomInputs:
		return "Random Inputs"
	case MayaConstant:
		return "Maya Constant"
	case MayaGS:
		return "Maya GS"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Design builds per-run policies of one kind for one machine.
type Design struct {
	kind Kind
	cfg  sim.Config
	// art is the synthesized Maya artifact; required for the Maya kinds.
	art *core.Design
	// periodTicks is the control period.
	periodTicks int
}

// NewDesign creates a design. art may be nil for the non-Maya kinds.
func NewDesign(kind Kind, cfg sim.Config, art *core.Design, periodTicks int) *Design {
	if (kind == MayaConstant || kind == MayaGS) && art == nil {
		panic("defense: Maya designs need a synthesized core.Design")
	}
	if periodTicks <= 0 {
		periodTicks = 20
	}
	return &Design{kind: kind, cfg: cfg, art: art, periodTicks: periodTicks}
}

// Name returns the Table V name.
func (d *Design) Name() string { return d.kind.String() }

// Policy returns a fresh policy for one run. runSeed is the run's secret:
// it seeds the design's random draws (noise levels, random input schedule,
// mask parameters). The same seed reproduces the same defense behaviour.
func (d *Design) Policy(runSeed uint64) sim.Policy {
	switch d.kind {
	case Baseline:
		return sim.NewBaselinePolicy(d.cfg)
	case NoisyBaseline:
		return newNoisyBaseline(d.cfg, runSeed)
	case RandomInputs:
		return newRandomInputs(d.cfg, runSeed)
	case MayaConstant:
		eng := core.NewConstantEngine(d.art, d.cfg)
		eng.Reset(runSeed)
		return eng
	case MayaGS:
		eng := core.NewGSEngine(d.art, d.cfg, d.periodTicks, runSeed)
		eng.Reset(runSeed)
		return eng
	default:
		panic("defense: unknown kind")
	}
}

// noisyBaseline draws one random setting per run and holds it for the whole
// execution (Table V: "Each run has a new DVFS, idle and balloon level").
type noisyBaseline struct {
	in sim.Inputs
}

func newNoisyBaseline(cfg sim.Config, seed uint64) *noisyBaseline {
	r := rng.NewNamed(seed, "defense/noisy")
	k := cfg.Knobs()
	d, i, b := k.FromNorms([3]float64{r.Float64(), r.Float64(), r.Float64()})
	return &noisyBaseline{in: sim.Inputs{FreqGHz: d, Idle: i, Balloon: b}}
}

// Decide implements sim.Policy.
func (p *noisyBaseline) Decide(int, float64) sim.Inputs { return p.in }

// randomInputs re-draws all settings at runtime, each held for a random
// duration (Table V: "DVFS, idle, and balloon levels change randomly at
// runtime"). This is the strongest non-formal defense the paper tests —
// and the MLP still identifies applications through it (Fig 6a).
type randomInputs struct {
	cfg  sim.Config
	r    *rng.Stream
	hold int
	cur  sim.Inputs
}

func newRandomInputs(cfg sim.Config, seed uint64) *randomInputs {
	return &randomInputs{cfg: cfg, r: rng.NewNamed(seed, "defense/random")}
}

// Decide implements sim.Policy.
func (p *randomInputs) Decide(int, float64) sim.Inputs {
	if p.hold <= 0 {
		k := p.cfg.Knobs()
		d, i, b := k.FromNorms([3]float64{p.r.Float64(), p.r.Float64(), p.r.Float64()})
		p.cur = sim.Inputs{FreqGHz: d, Idle: i, Balloon: b}
		// Settings persist 0.1–1 s. The frequent re-draws average out over
		// an analysis window, so the application's own level and phase
		// structure shine through the noise — which is why the MLP sees
		// through this defense (§VII-A: "randomly changing the DVFS, idle,
		// and balloon levels does not hide the application's inherent
		// activity").
		p.hold = p.r.IntRange(5, 50)
	}
	p.hold--
	return p.cur
}
