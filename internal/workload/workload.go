// Package workload provides the synthetic applications that run on the
// simulated machine. The paper evaluates on PARSEC 3.0 / SPLASH-2x
// applications, FFmpeg video transcoding, Chrome webpage visits, and
// instruction microbenchmarks (PLATYPUS); those binaries and datasets are
// not available here, so each is replaced by a phase-structured synthetic
// program whose compute/memory/parallelism signature produces the same kind
// of distinguishable power trace the attacks exploit.
//
// Phases are defined in units of *work*, not wall time: when a defense slows
// the machine down (low DVFS, idle injection, balloon contention), the
// application takes proportionally longer, which is what produces the
// execution-time overheads of Fig 14 and hides the true completion point
// under Maya GS (Fig 11).
package workload

import (
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/rng"
)

// Demand describes the load an application offers to the machine during the
// next simulator tick.
type Demand struct {
	// Threads is the number of runnable software threads.
	Threads int
	// Activity is the switching-activity factor in [0, 1.2]: the fraction of
	// a core's dynamic-power capacitance toggled per cycle. Heavy FP/SIMD
	// code exceeds 1 relative to the "typical" workload used to calibrate
	// the machine's per-core dynamic power.
	Activity float64
	// MemFrac is the fraction of execution time stalled on memory at the
	// machine's reference (max) frequency; it controls how progress scales
	// with DVFS (memory-bound work speeds up sublinearly).
	MemFrac float64
}

// Workload is a restartable synthetic application.
type Workload interface {
	// Name identifies the application (e.g., "blackscholes").
	Name() string
	// Demand returns the currently offered load. It is only meaningful
	// before Done.
	Demand() Demand
	// Advance consumes work completed by the machine this tick (in
	// giga-operations) and reports whether the application has finished.
	Advance(work float64) bool
	// Done reports whether all phases have completed.
	Done() bool
	// TotalWork returns the total work in the program (giga-operations).
	TotalWork() float64
	// Reset restarts the program with a fresh jitter stream derived from
	// seed, so repeated runs differ slightly (as real executions do).
	Reset(seed uint64)
}

// Oscillation modulates a phase's activity periodically as a function of
// work progress, producing loop-induced peaks in the power FFT (the natural
// peaks that §IV-C says masks must overwrite).
type Oscillation struct {
	Amp        float64 // activity modulation amplitude (additive)
	PeriodWork float64 // work units per full cycle
}

// TimeOscillation modulates a phase's activity periodically in *wall-clock*
// time (one tick = 1 ms of simulated time): browser timers, video frame
// cadence, and network keepalives fire on the clock regardless of how fast
// the CPU makes progress, which is why their FFT peaks survive defenses
// that merely slow the machine down.
type TimeOscillation struct {
	Amp       float64 // activity modulation amplitude (additive)
	PeriodSec float64 // seconds per full cycle
	// JitterFrac is the relative cadence wobble: real timers drift with
	// network latency, scheduling, and frame complexity, smearing their
	// spectral line over a band instead of a laboratory-pure tone.
	JitterFrac float64
}

// Phase is one stage of a synthetic program.
type Phase struct {
	Name     string
	Work     float64 // giga-operations in this phase
	Threads  int
	Activity float64
	MemFrac  float64
	Osc      *Oscillation
	TimeOsc  *TimeOscillation
	// JitterFrac randomizes this phase's work by ±frac on each Reset,
	// modeling run-to-run variation.
	JitterFrac float64
}

// Program is a Workload built from a fixed phase list.
type Program struct {
	name    string
	phases  []Phase
	jphases []Phase // jittered copy for the current run
	idx     int
	done    float64 // work consumed within the current phase
	total   float64
	ticks   int64 // wall-clock ticks elapsed (Demand calls)
	// Wall-clock oscillator state: phase accumulates with a slowly varying
	// rate so jittered cadences stay continuous.
	tphase float64
	tjit   float64
	r      *rng.Stream
}

// NewProgram builds a Program; it starts in the reset state with seed 0.
func NewProgram(name string, phases []Phase) *Program {
	if len(phases) == 0 {
		panic("workload: program needs at least one phase")
	}
	p := &Program{name: name, phases: phases}
	p.Reset(0)
	return p
}

// Name implements Workload.
func (p *Program) Name() string { return p.name }

// Reset implements Workload.
func (p *Program) Reset(seed uint64) {
	p.r = rng.NewNamed(seed, "workload/"+p.name)
	p.jphases = make([]Phase, len(p.phases))
	copy(p.jphases, p.phases)
	p.total = 0
	for i := range p.jphases {
		if j := p.jphases[i].JitterFrac; j > 0 {
			p.jphases[i].Work *= 1 + p.r.Uniform(-j, j)
		}
		p.total += p.jphases[i].Work
	}
	p.idx = 0
	p.done = 0
	p.ticks = 0
	p.tphase = 0
	p.tjit = 0
}

// Done implements Workload.
func (p *Program) Done() bool { return p.idx >= len(p.jphases) }

// TotalWork implements Workload.
func (p *Program) TotalWork() float64 { return p.total }

// Demand implements Workload. Each call represents one 1 ms tick of wall
// time for the purpose of clock-driven oscillations.
func (p *Program) Demand() Demand {
	p.ticks++
	if p.Done() {
		return Demand{}
	}
	ph := p.jphases[p.idx]
	act := ph.Activity
	if ph.Osc != nil && ph.Osc.PeriodWork > 0 {
		act += ph.Osc.Amp * math.Sin(2*math.Pi*p.done/ph.Osc.PeriodWork)
	}
	if ph.TimeOsc != nil && ph.TimeOsc.PeriodSec > 0 {
		// Ornstein-Uhlenbeck cadence wobble: the instantaneous rate drifts
		// around the nominal period by ±JitterFrac.
		if ph.TimeOsc.JitterFrac > 0 {
			p.tjit += 0.01 * (p.r.NormFloat64()*ph.TimeOsc.JitterFrac*3 - p.tjit)
		}
		p.tphase += 2 * math.Pi * 1e-3 / ph.TimeOsc.PeriodSec * (1 + p.tjit)
		act += ph.TimeOsc.Amp * math.Sin(p.tphase)
	}
	if act < 0 {
		act = 0
	}
	return Demand{Threads: ph.Threads, Activity: act, MemFrac: ph.MemFrac}
}

// Advance implements Workload.
func (p *Program) Advance(work float64) bool {
	for work > 0 && !p.Done() {
		ph := &p.jphases[p.idx]
		remain := ph.Work - p.done
		if work < remain {
			p.done += work
			return false
		}
		work -= remain
		p.idx++
		p.done = 0
	}
	return p.Done()
}

// PhaseIndex returns the index of the currently executing phase (== number
// of phases when done). Exposed for ground-truth change-point checks.
func (p *Program) PhaseIndex() int { return p.idx }

// Progress returns completed work / total work in [0, 1].
func (p *Program) Progress() float64 {
	if p.total == 0 {
		return 1
	}
	completed := p.done
	for i := 0; i < p.idx && i < len(p.jphases); i++ {
		completed += p.jphases[i].Work
	}
	return completed / p.total
}

// Scale returns a copy of the program with all phase work multiplied by s,
// so tests can run miniature versions of the paper-scale workloads.
func (p *Program) Scale(s float64) *Program {
	if s <= 0 {
		panic(fmt.Sprintf("workload: non-positive scale %g", s))
	}
	phases := make([]Phase, len(p.phases))
	copy(phases, p.phases)
	for i := range phases {
		phases[i].Work *= s
		if phases[i].Osc != nil {
			o := *phases[i].Osc
			// Keep oscillation period fixed in absolute work so the power
			// spectrum's loop peaks stay at the same frequencies; only the
			// program length shrinks.
			phases[i].Osc = &o
		}
	}
	return NewProgram(p.name, phases)
}

// Idle is a workload that offers no load forever; it models the machine
// sitting idle after an application completes.
type Idle struct{}

// Name implements Workload.
func (Idle) Name() string { return "idle" }

// Demand implements Workload.
func (Idle) Demand() Demand { return Demand{} }

// Advance implements Workload.
func (Idle) Advance(float64) bool { return false }

// Done implements Workload.
func (Idle) Done() bool { return false }

// TotalWork implements Workload.
func (Idle) TotalWork() float64 { return 0 }

// Reset implements Workload.
func (Idle) Reset(uint64) {}
