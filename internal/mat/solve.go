package mat

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting of a square matrix.
type LU struct {
	lu   *Matrix
	piv  []int
	sign int
}

// Factor computes the LU factorization of a. It returns ErrSingular if a
// pivot underflows working precision.
func Factor(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Factor of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				p, max = i, a
			}
		}
		if max < 1e-300 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.data[p*n+j], lu.data[k*n+j] = lu.data[k*n+j], lu.data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivVal
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.data[i*n+j] -= f * lu.data[k*n+j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// SolveVec solves A x = b for a single right-hand side.
func (f *LU) SolveVec(b []float64) []float64 {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveVec rhs length %d != %d", len(b), n))
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.data[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.data[i*n+j] * x[j]
		}
		x[i] = s / f.lu.data[i*n+i]
	}
	return x
}

// Solve solves A X = B for a matrix right-hand side.
func (f *LU) Solve(b *Matrix) *Matrix {
	n := f.lu.rows
	if b.rows != n {
		panic(fmt.Sprintf("mat: Solve rhs rows %d != %d", b.rows, n))
	}
	out := New(n, b.cols)
	col := make([]float64, n)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		x := f.SolveVec(col)
		for i := 0; i < n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.data[i*n+i]
	}
	return d
}

// Solve solves A X = B, factoring A internally.
func Solve(a, b *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SolveVec solves A x = b, factoring A internally.
func SolveVec(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

// Inverse returns A^-1.
func Inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, Identity(a.rows))
}

// QR holds a Householder QR factorization of an m×n matrix with m >= n.
// The Householder vectors are stored explicitly so that Qᵀ can be applied
// to right-hand sides during least-squares solves.
type QR struct {
	r *Matrix     // n×n upper-triangular factor.
	v [][]float64 // v[k] is the Householder vector for step k (length m-k).
}

// FactorQR computes the QR factorization of a (requires rows >= cols).
func FactorQR(a *Matrix) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic(fmt.Sprintf("mat: FactorQR needs rows >= cols, got %dx%d", m, n))
	}
	w := a.Clone()
	vs := make([][]float64, n)
	for k := 0; k < n; k++ {
		// Build the Householder vector that zeroes column k below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, w.At(i, k))
		}
		v := make([]float64, m-k)
		if norm != 0 {
			alpha := -norm
			if w.At(k, k) < 0 {
				alpha = norm
			}
			for i := k; i < m; i++ {
				v[i-k] = w.At(i, k)
			}
			v[0] -= alpha
			vn := 0.0
			for _, x := range v {
				vn = math.Hypot(vn, x)
			}
			if vn > 0 {
				for i := range v {
					v[i] /= vn
				}
				// Apply H = I - 2 v vᵀ to the trailing submatrix.
				for j := k; j < n; j++ {
					s := 0.0
					for i := k; i < m; i++ {
						s += v[i-k] * w.At(i, j)
					}
					s *= 2
					for i := k; i < m; i++ {
						w.Set(i, j, w.At(i, j)-s*v[i-k])
					}
				}
			}
		}
		vs[k] = v
	}
	r := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, w.At(i, j))
		}
	}
	return &QR{r: r, v: vs}
}

// SolveVec returns the least-squares solution of min ||A x - b||₂.
func (q *QR) SolveVec(b []float64) ([]float64, error) {
	n := q.r.rows
	m := len(q.v[0])
	if len(b) != m {
		panic(fmt.Sprintf("mat: QR SolveVec rhs length %d != %d", len(b), m))
	}
	qtb := make([]float64, m)
	copy(qtb, b)
	for k := 0; k < n; k++ {
		v := q.v[k]
		s := 0.0
		for i := range v {
			s += v[i] * qtb[k+i]
		}
		s *= 2
		for i := range v {
			qtb[k+i] -= s * v[i]
		}
	}
	// Back-substitute R x = (Qᵀ b)[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= q.r.At(i, j) * x[j]
		}
		d := q.r.At(i, i)
		if math.Abs(d) < 1e-300 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// LeastSquares solves min ||A x - b||₂. With ridge == 0 it uses Householder
// QR. With ridge > 0 it solves the Tikhonov-damped normal equations
// (AᵀA + λI) x = Aᵀ b, which keeps the solve stable when excitation data is
// nearly collinear (common in sysid logs, where an input may sit at one
// level for long stretches).
func LeastSquares(a *Matrix, b []float64, ridge float64) ([]float64, error) {
	if a.rows != len(b) {
		panic(fmt.Sprintf("mat: LeastSquares rows %d != rhs %d", a.rows, len(b)))
	}
	if ridge == 0 {
		return FactorQR(a).SolveVec(b)
	}
	at := a.T()
	ata := at.Mul(a)
	for i := 0; i < ata.rows; i++ {
		ata.data[i*ata.cols+i] += ridge
	}
	atb := at.MulVec(b)
	return SolveVec(ata, atb)
}
