package mat

import (
	"math"
	"math/cmplx"
)

// Eigenvalues computes all eigenvalues of a real square matrix via
// Hessenberg reduction followed by the Francis implicit double-shift QR
// iteration (the standard real Schur approach: complex conjugate pairs are
// handled without complex arithmetic, and 2×2 trailing blocks are resolved
// analytically). Controller synthesis uses it to report true closed-loop
// poles; SpectralRadius uses it for exact stability checks.
func Eigenvalues(a *Matrix) []complex128 {
	n := a.Rows()
	if a.Cols() != n {
		panic("mat: Eigenvalues of non-square matrix")
	}
	if n == 0 {
		return nil
	}
	h := hessenberg(a)
	return francis(h)
}

// hessenberg reduces a to upper Hessenberg form with Householder
// reflections (similarity transform, eigenvalues preserved).
func hessenberg(a *Matrix) *Matrix {
	n := a.Rows()
	h := a.Clone()
	for k := 0; k < n-2; k++ {
		norm := 0.0
		for i := k + 1; i < n; i++ {
			norm = math.Hypot(norm, h.At(i, k))
		}
		if norm == 0 {
			continue
		}
		alpha := -norm
		if h.At(k+1, k) < 0 {
			alpha = norm
		}
		v := make([]float64, n)
		for i := k + 1; i < n; i++ {
			v[i] = h.At(i, k)
		}
		v[k+1] -= alpha
		vn := 0.0
		for _, x := range v {
			vn = math.Hypot(vn, x)
		}
		if vn == 0 {
			continue
		}
		for i := range v {
			v[i] /= vn
		}
		// H ← (I − 2vvᵀ) H (I − 2vvᵀ).
		for j := 0; j < n; j++ {
			s := 0.0
			for i := k + 1; i < n; i++ {
				s += v[i] * h.At(i, j)
			}
			s *= 2
			for i := k + 1; i < n; i++ {
				h.Set(i, j, h.At(i, j)-s*v[i])
			}
		}
		for i := 0; i < n; i++ {
			s := 0.0
			for j := k + 1; j < n; j++ {
				s += h.At(i, j) * v[j]
			}
			s *= 2
			for j := k + 1; j < n; j++ {
				h.Set(i, j, h.At(i, j)-s*v[j])
			}
		}
	}
	return h
}

// francis runs the implicit double-shift QR iteration on a Hessenberg
// matrix, deflating eigenvalues from the bottom.
func francis(h *Matrix) []complex128 {
	n := h.Rows()
	eigs := make([]complex128, 0, n)
	m := n - 1 // active block is rows/cols [l..m]
	iter := 0
	for m >= 0 {
		// Find the start l of the active unreduced block.
		l := m
		for l > 0 {
			s := math.Abs(h.At(l-1, l-1)) + math.Abs(h.At(l, l))
			if s == 0 {
				s = 1
			}
			if math.Abs(h.At(l, l-1)) <= 1e-13*s {
				h.Set(l, l-1, 0)
				break
			}
			l--
		}
		switch {
		case l == m:
			eigs = append(eigs, complex(h.At(m, m), 0))
			m--
			iter = 0
		case l == m-1:
			eigs = append(eigs, twoByTwo(h, m-1)...)
			m -= 2
			iter = 0
		default:
			iter++
			if iter > 40*(m-l+1) {
				// Stalled (should not happen with exceptional shifts);
				// deflate the trailing 2×2 analytically as a last resort
				// and keep going.
				eigs = append(eigs, twoByTwo(h, m-1)...)
				m -= 2
				iter = 0
				continue
			}
			exceptional := iter%12 == 0
			doubleShiftSweep(h, l, m, exceptional)
		}
	}
	return eigs
}

// twoByTwo returns the eigenvalues of the 2×2 block at (k, k).
func twoByTwo(h *Matrix, k int) []complex128 {
	a := h.At(k, k)
	b := h.At(k, k+1)
	c := h.At(k+1, k)
	d := h.At(k+1, k+1)
	tr := a + d
	det := a*d - b*c
	disc := cmplx.Sqrt(complex(tr*tr/4-det, 0))
	return []complex128{complex(tr/2, 0) + disc, complex(tr/2, 0) - disc}
}

// doubleShiftSweep performs one Francis double-shift bulge chase on the
// active block [l..m]. When exceptional is set, ad-hoc shifts break rare
// convergence stalls (Wilkinson's trick).
func doubleShiftSweep(h *Matrix, l, m int, exceptional bool) {
	var s, t float64
	if exceptional {
		w := math.Abs(h.At(m, m-1)) + math.Abs(h.At(m-1, m-2))
		s = 1.5 * w
		t = w * w
	} else {
		s = h.At(m-1, m-1) + h.At(m, m)
		t = h.At(m-1, m-1)*h.At(m, m) - h.At(m-1, m)*h.At(m, m-1)
	}
	// First column of (H − σ₁I)(H − σ₂I).
	x := h.At(l, l)*h.At(l, l) + h.At(l, l+1)*h.At(l+1, l) - s*h.At(l, l) + t
	y := h.At(l+1, l) * (h.At(l, l) + h.At(l+1, l+1) - s)
	z := 0.0
	if l+2 <= m {
		z = h.At(l+2, l+1) * h.At(l+1, l)
	}
	for k := l; k <= m-2; k++ {
		applyBulge(h, k, l, m, x, y, z)
		x = h.At(k+1, k)
		y = h.At(k+2, k)
		if k+3 <= m {
			z = h.At(k+3, k)
		} else {
			z = 0
		}
	}
	// Final 2-row reflector (z absent).
	applyBulge2(h, m-1, l, m, x, y)
}

// applyBulge applies a 3-element Householder reflector zeroing (y, z)
// against x, acting on rows/cols k..k+2 of the active block.
func applyBulge(h *Matrix, k, l, m int, x, y, z float64) {
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm == 0 {
		return
	}
	alpha := -norm
	if x < 0 {
		alpha = norm
	}
	v0, v1, v2 := x-alpha, y, z
	vn := math.Sqrt(v0*v0 + v1*v1 + v2*v2)
	if vn == 0 {
		return
	}
	v0, v1, v2 = v0/vn, v1/vn, v2/vn
	colLo := k - 1
	if colLo < l {
		colLo = l
	}
	// Left: rows k..k+2, columns colLo..m.
	for j := colLo; j <= m; j++ {
		s := v0*h.At(k, j) + v1*h.At(k+1, j) + v2*h.At(k+2, j)
		s *= 2
		h.Set(k, j, h.At(k, j)-s*v0)
		h.Set(k+1, j, h.At(k+1, j)-s*v1)
		h.Set(k+2, j, h.At(k+2, j)-s*v2)
	}
	// Right: columns k..k+2, rows l..min(k+3, m).
	rowHi := k + 3
	if rowHi > m {
		rowHi = m
	}
	for i := l; i <= rowHi; i++ {
		s := v0*h.At(i, k) + v1*h.At(i, k+1) + v2*h.At(i, k+2)
		s *= 2
		h.Set(i, k, h.At(i, k)-s*v0)
		h.Set(i, k+1, h.At(i, k+1)-s*v1)
		h.Set(i, k+2, h.At(i, k+2)-s*v2)
	}
}

// applyBulge2 is the trailing 2-element reflector of a sweep.
func applyBulge2(h *Matrix, k, l, m int, x, y float64) {
	norm := math.Hypot(x, y)
	if norm == 0 {
		return
	}
	alpha := -norm
	if x < 0 {
		alpha = norm
	}
	v0, v1 := x-alpha, y
	vn := math.Hypot(v0, v1)
	if vn == 0 {
		return
	}
	v0, v1 = v0/vn, v1/vn
	colLo := k - 1
	if colLo < l {
		colLo = l
	}
	for j := colLo; j <= m; j++ {
		s := 2 * (v0*h.At(k, j) + v1*h.At(k+1, j))
		h.Set(k, j, h.At(k, j)-s*v0)
		h.Set(k+1, j, h.At(k+1, j)-s*v1)
	}
	for i := l; i <= m; i++ {
		s := 2 * (v0*h.At(i, k) + v1*h.At(i, k+1))
		h.Set(i, k, h.At(i, k)-s*v0)
		h.Set(i, k+1, h.At(i, k+1)-s*v1)
	}
}

// SpectralRadiusExact returns max |λ| using the QR eigenvalue solver.
func SpectralRadiusExact(a *Matrix) float64 {
	rho := 0.0
	for _, e := range Eigenvalues(a) {
		if m := cmplx.Abs(e); m > rho {
			rho = m
		}
	}
	return rho
}
