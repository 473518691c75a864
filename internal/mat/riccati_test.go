package mat

import (
	"math"
	"testing"
)

func TestSolveDAREScalar(t *testing.T) {
	// Scalar DARE: p = a²p − a²p²b²/(r+b²p) + q with a=1, b=1, q=1, r=1.
	// p = p − p²/(1+p) + 1 → p² = p + 1 + p... solve analytically:
	// p = p·1/(1+p)·1... rearranged: p(1+p) = p(1+p) − p² + (1+p)
	// → p² − p − 1 = 0 → p = (1+√5)/2 (golden ratio).
	a := FromRows([][]float64{{1}})
	b := FromRows([][]float64{{1}})
	q := FromRows([][]float64{{1}})
	r := FromRows([][]float64{{1}})
	p, err := SolveDARE(a, b, q, r, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + math.Sqrt(5)) / 2
	if !almostEq(p.At(0, 0), want, 1e-8) {
		t.Fatalf("p=%g want %g", p.At(0, 0), want)
	}
}

func TestSolveDAREResidual(t *testing.T) {
	a := FromRows([][]float64{{0.9, 0.2}, {0, 0.8}})
	b := FromRows([][]float64{{0}, {1}})
	q := Identity(2)
	r := FromRows([][]float64{{0.5}})
	p, err := SolveDARE(a, b, q, r, 1e-12, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Check the Riccati residual directly.
	bt := b.T()
	g := r.Add(bt.Mul(p).Mul(b))
	gInv, err := Inverse(g)
	if err != nil {
		t.Fatal(err)
	}
	rhs := a.T().Mul(p).Mul(a).Sub(a.T().Mul(p).Mul(b).Mul(gInv).Mul(bt).Mul(p).Mul(a)).Add(q)
	if !p.Equal(rhs, 1e-8) {
		t.Fatalf("DARE residual too large:\nP=\n%vRHS=\n%v", p, rhs)
	}
	// P must be symmetric positive definite: check diagonal positivity + symmetry.
	if p.At(0, 1) != p.At(1, 0) {
		t.Fatal("P not symmetric")
	}
	if p.At(0, 0) <= 0 || p.At(1, 1) <= 0 {
		t.Fatal("P not positive on diagonal")
	}
}

func TestLQRGainStabilizes(t *testing.T) {
	// Unstable plant; LQR must stabilize the closed loop A − B K.
	a := FromRows([][]float64{{1.2, 0.1}, {0, 1.05}})
	b := FromRows([][]float64{{0.3}, {1}})
	q := Identity(2)
	r := FromRows([][]float64{{1}})
	k, err := LQRGain(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	acl := a.Sub(b.Mul(k))
	rho := SpectralRadius(acl)
	if rho >= 1 {
		t.Fatalf("closed loop unstable: rho=%g\nK=%v", rho, k)
	}
	// Open loop is unstable; sanity check the metric itself.
	if SpectralRadius(a) <= 1 {
		t.Fatalf("open loop should be unstable, rho=%g", SpectralRadius(a))
	}
}

func TestSpectralRadiusDiagonal(t *testing.T) {
	a := Diag([]float64{0.2, -0.7, 0.5})
	rho := SpectralRadius(a)
	if math.Abs(rho-0.7) > 0.05 {
		t.Fatalf("rho=%g want ~0.7", rho)
	}
}

func TestLQRGainScalarKnown(t *testing.T) {
	// a=0.5, b=1, q=1, r=1: p = a²p − a²p²/(1+p) + 1; K = p·a/(1+p).
	a := FromRows([][]float64{{0.5}})
	b := FromRows([][]float64{{1}})
	q := FromRows([][]float64{{1}})
	r := FromRows([][]float64{{1}})
	p, err := SolveDARE(a, b, q, r, 1e-13, 10000)
	if err != nil {
		t.Fatal(err)
	}
	pv := p.At(0, 0)
	// Verify scalar fixed point.
	want := 0.25*pv - 0.25*pv*pv/(1+pv) + 1
	if !almostEq(pv, want, 1e-9) {
		t.Fatalf("scalar DARE fixed point violated: %g vs %g", pv, want)
	}
	k, err := LQRGain(a, b, q, r)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(k.At(0, 0), 0.5*pv/(1+pv), 1e-9) {
		t.Fatalf("K=%g", k.At(0, 0))
	}
}
