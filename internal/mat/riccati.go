package mat

import (
	"errors"
	"math"
)

// ErrNoConverge is returned when a fixed-point iteration fails to converge.
var ErrNoConverge = errors.New("mat: iteration did not converge")

// SolveDARE solves the discrete-time algebraic Riccati equation
//
//	P = AᵀPA − AᵀPB (R + BᵀPB)⁻¹ BᵀPA + Q
//
// by the structured doubling-free fixed-point iteration (value iteration on
// the Riccati recursion), which is robust for the small, stable-izable
// systems produced by system identification in this repository.
// Q must be symmetric positive semidefinite and R symmetric positive
// definite. The iteration stops when successive iterates differ by less
// than tol in the max norm, or fails after maxIter sweeps.
func SolveDARE(a, b, q, r *Matrix, tol float64, maxIter int) (*Matrix, error) {
	n := a.Rows()
	if a.Cols() != n || q.Rows() != n || q.Cols() != n || b.Rows() != n || r.Rows() != b.Cols() || r.Cols() != b.Cols() {
		panic("mat: SolveDARE dimension mismatch")
	}
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	p := q.Clone()
	at := a.T()
	bt := b.T()
	for iter := 0; iter < maxIter; iter++ {
		// G = R + BᵀPB
		g := r.Add(bt.Mul(p).Mul(b))
		gInv, err := Inverse(g)
		if err != nil {
			return nil, err
		}
		// P' = AᵀPA − AᵀPB G⁻¹ BᵀPA + Q
		pa := p.Mul(a)
		atpa := at.Mul(pa)
		atpb := at.Mul(p).Mul(b)
		btpa := bt.Mul(pa)
		next := atpa.Sub(atpb.Mul(gInv).Mul(btpa)).Add(q)
		// Symmetrize to suppress round-off drift.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				avg := 0.5 * (next.At(i, j) + next.At(j, i))
				next.Set(i, j, avg)
				next.Set(j, i, avg)
			}
		}
		diff := next.Sub(p).MaxAbs()
		scale := 1 + p.MaxAbs()
		p = next
		if diff/scale < tol {
			return p, nil
		}
	}
	return nil, ErrNoConverge
}

// LQRGain returns the infinite-horizon discrete LQR state-feedback gain
// K = (R + BᵀPB)⁻¹ BᵀPA where P solves the associated DARE, so that the
// optimal control is u = −K x.
func LQRGain(a, b, q, r *Matrix) (*Matrix, error) {
	p, err := SolveDARE(a, b, q, r, 1e-9, 100000)
	if err != nil {
		return nil, err
	}
	bt := b.T()
	g := r.Add(bt.Mul(p).Mul(b))
	gInv, err := Inverse(g)
	if err != nil {
		return nil, err
	}
	return gInv.Mul(bt).Mul(p).Mul(a), nil
}

// SpectralRadius returns the largest eigenvalue magnitude of a square
// matrix. Small matrices (every system in this repository) use the exact
// QR eigenvalue solver; larger ones fall back to Gelfand's formula
// ρ(A) = lim ||A^k||^(1/k) with repeated squaring.
func SpectralRadius(a *Matrix) float64 {
	n := a.Rows()
	if n == 0 {
		return 0
	}
	if n <= 64 {
		return SpectralRadiusExact(a)
	}
	k := 1
	ak := a.Clone()
	rho := ak.FrobeniusNorm()
	for step := 0; step < 10; step++ {
		norm := ak.FrobeniusNorm()
		if norm == 0 {
			// A^k vanished numerically; the last estimate stands (or the
			// matrix is nilpotent, where 0 is correct only if k ≥ n — the
			// previous estimate upper-bounds ρ either way).
			return rho
		}
		rho = math.Pow(norm, 1/float64(k))
		if math.IsInf(norm, 0) || norm > 1e150 || norm < 1e-150 {
			break
		}
		ak = ak.Mul(ak)
		k *= 2
	}
	return rho
}
