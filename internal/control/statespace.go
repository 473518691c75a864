// Package control implements the formal controller at the heart of Maya
// (§II-C, §V-A): synthesis of the constant matrices A, B, C, D that define
// the controller state machine of Eq. 1, and the runtime state machine
// itself.
//
// The paper synthesizes a robust controller with MATLAB's toolchain [27]
// from an identified ARX model, three designer parameters (input weights,
// uncertainty guardband, output deviation bound), and obtains an 11-state
// controller. This package performs the equivalent synthesis in pure Go as
// an LQG servo design:
//
//   - the ARX model is realized in observer-canonical state-space form;
//   - a Kalman-style observer estimates the plant state plus a random-walk
//     output disturbance (which absorbs the application's own power draw —
//     the "unpredictable runtime conditions" — and the moving mask target);
//   - integral action on the tracking error gives zero steady-state error;
//   - the control cost penalizes input *rates*, which both smooths
//     actuation and adds the input-weighting designer knob;
//   - the uncertainty guardband scales the input-rate penalty, trading
//     tracking aggressiveness for robustness to model error.
//
// With the paper's order-4 model and three inputs the resulting controller
// has 4 + 1 + 1 + 3 = 9 states (the paper's µ-synthesis adds two weighting
// states for a total of 11); like the paper's controller it needs ~200
// multiply-accumulates and under 1 KB of state per 20 ms period.
//
// Controller.Step is the only implementation of that step. A protected
// machine owns one Controller, a Clone sharing the synthesized gains, in
// the scalar engine and in every tenant of a fleet alike.
package control

import (
	"fmt"

	"github.com/maya-defense/maya/internal/mat"
	"github.com/maya-defense/maya/internal/sysid"
)

// StateSpace is a discrete-time linear system x⁺ = A x + B u, y = C x
// (no direct feedthrough: ARX models are fit with one-step input delay).
// It operates in deviation coordinates around (UMean, YMean).
type StateSpace struct {
	A, B, C *mat.Matrix
	// YMean and UMean are the operating point removed during fitting.
	YMean float64
	UMean []float64
}

// FromARX realizes an ARX model in observer canonical form:
//
//	A = | a₁ 1 0 … |   B[i][j] = b_{j,i+1}   C = [1 0 … 0]
//	    | a₂ 0 1 … |
//	    | …        |
//	    | a_m 0 … 0|
//
// so that y(T) = x₁(T) reproduces the ARX recursion exactly.
func FromARX(m *sysid.Model) *StateSpace {
	n := m.Order
	nu := m.NumInputs
	a := mat.New(n, n)
	b := mat.New(n, nu)
	c := mat.New(1, n)
	for i := 0; i < n; i++ {
		a.Set(i, 0, m.A[i])
		if i+1 < n {
			a.Set(i, i+1, 1)
		}
	}
	// Transpose note: observer canonical form places aᵢ in the first
	// *column* when written as above with C = e₁ᵀ; using the first column
	// and superdiagonal identity keeps y(T) = x₁(T).
	for i := 0; i < n; i++ {
		for j := 0; j < nu; j++ {
			b.Set(i, j, m.B[j][i])
		}
	}
	c.Set(0, 0, 1)
	um := make([]float64, nu)
	copy(um, m.UMean)
	return &StateSpace{A: a, B: b, C: c, YMean: m.YMean, UMean: um}
}

// Order returns the state dimension.
func (s *StateSpace) Order() int { return s.A.Rows() }

// NumInputs returns the input dimension.
func (s *StateSpace) NumInputs() int { return s.B.Cols() }

// Simulate free-runs the system from the zero (deviation) state over an
// input sequence given in *absolute* units; it returns absolute outputs.
func (s *StateSpace) Simulate(u [][]float64) []float64 {
	nu := s.NumInputs()
	if len(u) != nu {
		panic(fmt.Sprintf("control: Simulate wants %d inputs, got %d", nu, len(u)))
	}
	n := 0
	if nu > 0 {
		n = len(u[0])
	}
	x := make([]float64, s.Order())
	xNext := make([]float64, s.Order())
	uDev := make([]float64, nu)
	y := make([]float64, n)
	for t := 0; t < n; t++ {
		y[t] = s.C.MulVec(x)[0] + s.YMean
		for j := 0; j < nu; j++ {
			uDev[j] = u[j][t] - s.UMean[j]
		}
		s.A.MulVecTo(xNext, x)
		bu := s.B.MulVec(uDev)
		for i := range xNext {
			xNext[i] += bu[i]
		}
		x, xNext = xNext, x
	}
	return y
}

// Verify checks that the realization reproduces the ARX model's free-run
// response on a probe input sequence within tol; it returns an error with
// the max deviation otherwise. Used as a synthesis-time sanity check.
func (s *StateSpace) Verify(m *sysid.Model, tol float64) error {
	nu := s.NumInputs()
	n := 50 + 10*s.Order()
	u := make([][]float64, nu)
	for j := range u {
		u[j] = make([]float64, n)
		for t := range u[j] {
			// Deterministic probe: steps of different periods per channel.
			if (t/(3+2*j))%2 == 0 {
				u[j][t] = m.UMean[j] + 0.3
			} else {
				u[j][t] = m.UMean[j] - 0.3
			}
		}
	}
	ySS := s.Simulate(u)
	yARX := m.Simulate(u)
	worst := 0.0
	for t := range ySS {
		d := ySS[t] - yARX[t]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > tol {
		return fmt.Errorf("control: realization mismatch %g > tol %g", worst, tol)
	}
	return nil
}
