package control

// Bank is a fixed set of independent controllers, each a Clone of one
// prototype. It does no arithmetic of its own: StepAll calls
// Controller.Step once per active tenant. The fleet engine does not use it
// (each of its tenants steps the controller of its own core.Engine); Bank
// is kept for the benchmark's layer-by-layer fleet replay, which times a
// period's controller steps as one stage.
type Bank struct {
	ctls []Controller
}

// NewBank builds a bank of tenants controllers, each a fresh Clone of
// proto: the prototype's gains and integrator clamp, zero state.
func NewBank(proto *Controller, tenants int) *Bank {
	if tenants <= 0 {
		panic("control: NewBank needs at least one tenant")
	}
	b := &Bank{ctls: make([]Controller, tenants)}
	for t := range b.ctls {
		b.ctls[t] = *proto.Clone()
	}
	return b
}

// Tenant returns tenant t's controller.
func (b *Bank) Tenant(t int) *Controller { return &b.ctls[t] }

// U returns tenant t's inputs from its most recent step: the slice that
// Step returned, overwritten by the tenant's next step.
func (b *Bank) U(t int) []float64 { return b.ctls[t].uOut }

// StepAll steps every active tenant t once on deltaY[t]. A nil active
// steps every tenant; an inactive tenant is left exactly as it was, like a
// controller whose wakeup was missed.
//
//maya:hotpath
func (b *Bank) StepAll(deltaY []float64, active []bool) {
	for t := range b.ctls {
		if active == nil || active[t] {
			b.ctls[t].Step(deltaY[t])
		}
	}
}
