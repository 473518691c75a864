package core

import (
	"github.com/maya-defense/maya/internal/sim"
)

// Gate implements the paper's first overhead-reduction proposal (§V): "One
// approach is to selectively activate Maya only in sections of the
// application where it is needed, similar to how power governors can be
// invoked in Linux." A Gate wraps the Maya engine together with a
// pass-through policy; a trigger decides per control period whether the
// defense is on. While off, the machine runs at the baseline's settings and
// pays no overhead; while on, power follows the mask.
//
// The security contract is exactly the paper's: only the gated-on window is
// obfuscated. Sections running with the gate off leak as the baseline does,
// so the trigger must enclose everything sensitive.
type Gate struct {
	engine   *Engine
	passthru sim.Policy
	trigger  func(step int) bool

	// Transitions counts off→on edges (telemetry).
	Transitions int
	lastOn      bool
}

// NewGate wraps an engine. trigger receives the control-period index and
// returns whether protection is active for that period; passthru supplies
// the inputs when protection is off (typically the baseline policy).
func NewGate(engine *Engine, passthru sim.Policy, trigger func(step int) bool) *Gate {
	if engine == nil || passthru == nil || trigger == nil {
		panic("core: NewGate needs an engine, a passthrough policy, and a trigger")
	}
	return &Gate{engine: engine, passthru: passthru, trigger: trigger}
}

// WindowTrigger returns a trigger that is active for control periods
// [from, to) — the "sensitive section" expressed in defense periods.
func WindowTrigger(from, to int) func(step int) bool {
	return func(step int) bool { return step >= from && step < to }
}

// Reset resets the wrapped engine and telemetry.
func (g *Gate) Reset(seed uint64) {
	g.engine.Reset(seed)
	g.Transitions = 0
	g.lastOn = false
}

// Decide implements sim.Policy.
func (g *Gate) Decide(step int, powerW float64) sim.Inputs {
	on := g.trigger(step)
	if on && !g.lastOn {
		g.Transitions++
		// Entering a protected section: the controller must not act on
		// state accumulated while it was not in charge of the plant.
		g.engine.ctl.Reset()
	}
	g.lastOn = on
	if on {
		return g.engine.Decide(step, powerW)
	}
	// Keep the mask stream advancing while off so the on-window's targets
	// do not repeat across gate cycles.
	g.engine.gen.Next()
	return g.passthru.Decide(step, powerW)
}
