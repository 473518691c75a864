package control

import (
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/sysid"
)

// bankTestControllers returns synthesized controllers of two shapes: order
// 2 with 3 inputs, and order 4 with 2 inputs.
func bankTestControllers(t *testing.T) map[string]*Controller {
	t.Helper()
	order4 := &sysid.Model{
		Order: 4, NumInputs: 2,
		A: []float64{0.5, 0.1, -0.05, 0.02},
		B: [][]float64{
			{1.0, 0.5, 0.2, 0.1},
			{-0.7, -0.3, -0.1, 0.0},
		},
		YMean: 10, UMean: []float64{0.5, 0.5},
	}
	out := make(map[string]*Controller)
	for name, m := range map[string]*sysid.Model{
		"order2-nu3": testModel(),
		"order4-nu2": order4,
	} {
		spec := DefaultSpec(m.NumInputs)
		spec.RestPoint = spec.RestPoint[:m.NumInputs]
		k, _, err := Synthesize(FromARX(m), spec)
		if err != nil {
			t.Fatalf("%s: synthesize: %v", name, err)
		}
		out[name] = k
	}
	return out
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestBankActiveMask pins the deadline-miss semantics: an inactive tenant's
// state must be exactly untouched, matching a scalar controller that simply
// was not stepped that period.
func TestBankActiveMask(t *testing.T) {
	for name, proto := range bankTestControllers(t) {
		t.Run(name, func(t *testing.T) {
			const T, steps = 5, 300
			bank := NewBank(proto, T)
			twins := make([]*Controller, T)
			for i := range twins {
				twins[i] = proto.Clone()
			}
			r := rng.NewNamed(7, "test/bank-mask-"+name)
			deltaY := make([]float64, T)
			active := make([]bool, T)
			for s := 0; s < steps; s++ {
				for ti := range deltaY {
					deltaY[ti] = r.Uniform(-50, 50)
					active[ti] = !r.Bool(0.3)
				}
				bank.StepAll(deltaY, active)
				for ti, twin := range twins {
					if !active[ti] {
						continue
					}
					want := twin.Step(deltaY[ti])
					got := bank.U(ti)
					for j := range want {
						if !bitsEqual(got[j], want[j]) {
							t.Fatalf("step %d tenant %d u[%d] mismatch under mask", s, ti, j)
						}
					}
					if !bitsEqual(bank.Tenant(ti).StateNorm(), twin.StateNorm()) {
						t.Fatalf("step %d tenant %d state norm mismatch under mask", s, ti)
					}
				}
			}
		})
	}
}
