// Package sysid implements the System Identification step of §V-A: run a
// training set of applications on the machine while exciting the inputs
// with random steps, log inputs and outputs every control period, and fit
// a dynamic polynomial (ARX) model
//
//	y(T) = a₁y(T−1) + … + a_m y(T−m) + b₁u(T−1) + … + b_n u(T−n)
//
// by least squares (Ljung [43]). The fitted model feeds controller
// synthesis in internal/control. Inputs are one-step delayed (no direct
// feedthrough): actuation decided at period T takes effect from T+1, which
// matches the simulated machine's actuation lag.
package sysid

import (
	"errors"
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/mat"
	"github.com/maya-defense/maya/internal/signal"
)

// Model is a fitted ARX model with equal output and input orders
// (m = n = Order, as in the paper's dimension-4 models).
type Model struct {
	Order     int
	NumInputs int
	// A holds a₁..a_m (coefficients on past outputs).
	A []float64
	// B[j] holds b_{j,1}..b_{j,n} (coefficients on past values of input j).
	B [][]float64
	// YMean and UMean center the data; the model operates on deviations.
	YMean float64
	UMean []float64
	// ResidualStd is the one-step prediction residual standard deviation.
	ResidualStd float64
	// FitR2 is the one-step coefficient of determination on the fit data.
	FitR2 float64
}

// ErrTooShort indicates the log has too few samples for the model order.
var ErrTooShort = errors.New("sysid: log too short for requested order")

// Fit estimates an ARX model of the given order from an input/output log.
// y[t] is the measured output at period t; u[j][t] is input j commanded at
// period t (taking effect at t+1). ridge adds Tikhonov damping to tolerate
// weakly exciting logs.
func Fit(y []float64, u [][]float64, order int, ridge float64) (*Model, error) {
	nu := len(u)
	if nu == 0 {
		return nil, errors.New("sysid: no inputs")
	}
	n := len(y)
	for j := range u {
		if len(u[j]) != n {
			return nil, fmt.Errorf("sysid: input %d length %d != output length %d", j, len(u[j]), n)
		}
	}
	if order < 1 {
		return nil, errors.New("sysid: order must be >= 1")
	}
	rows := n - order
	cols := order + nu*order
	if rows < 4*cols {
		return nil, ErrTooShort
	}

	// Center: fit on deviations so the model has no affine offset term.
	ym := signal.Mean(y)
	um := make([]float64, nu)
	for j := range u {
		um[j] = signal.Mean(u[j])
	}

	phi := mat.New(rows, cols)
	rhs := make([]float64, rows)
	for t := order; t < n; t++ {
		r := t - order
		c := 0
		for i := 1; i <= order; i++ {
			phi.Set(r, c, y[t-i]-ym)
			c++
		}
		for j := 0; j < nu; j++ {
			for i := 1; i <= order; i++ {
				phi.Set(r, c, u[j][t-i]-um[j])
				c++
			}
		}
		rhs[r] = y[t] - ym
	}
	theta, err := mat.LeastSquares(phi, rhs, ridge)
	if err != nil {
		return nil, fmt.Errorf("sysid: least squares failed: %w", err)
	}

	m := &Model{Order: order, NumInputs: nu, YMean: ym, UMean: um}
	m.A = append(m.A, theta[:order]...)
	for j := 0; j < nu; j++ {
		bj := make([]float64, order)
		copy(bj, theta[order+j*order:order+(j+1)*order])
		m.B = append(m.B, bj)
	}

	// Residual statistics.
	pred := phi.MulVec(theta)
	var sse, sst float64
	for r := 0; r < rows; r++ {
		d := rhs[r] - pred[r]
		sse += d * d
		sst += rhs[r] * rhs[r]
	}
	m.ResidualStd = math.Sqrt(sse / float64(rows))
	if sst > 0 {
		m.FitR2 = 1 - sse/sst
	}
	return m, nil
}

// Predict returns the one-step prediction of y(T) given the most recent
// Order outputs (yHist[0] = y(T-1), yHist[1] = y(T-2), ...) and inputs
// (uHist[j][0] = u_j(T-1), ...).
func (m *Model) Predict(yHist []float64, uHist [][]float64) float64 {
	if len(yHist) < m.Order {
		panic("sysid: Predict needs Order past outputs")
	}
	s := 0.0
	for i := 0; i < m.Order; i++ {
		s += m.A[i] * (yHist[i] - m.YMean)
	}
	for j := 0; j < m.NumInputs; j++ {
		for i := 0; i < m.Order; i++ {
			s += m.B[j][i] * (uHist[j][i] - m.UMean[j])
		}
	}
	return s + m.YMean
}

// Simulate free-runs the model from rest over an input sequence
// (u[j][t] commanded at period t) and returns the simulated outputs.
func (m *Model) Simulate(u [][]float64) []float64 {
	if len(u) != m.NumInputs {
		panic("sysid: Simulate input count mismatch")
	}
	n := 0
	if m.NumInputs > 0 {
		n = len(u[0])
	}
	y := make([]float64, n)
	yHist := make([]float64, m.Order)
	uHist := make([][]float64, m.NumInputs)
	for j := range uHist {
		uHist[j] = make([]float64, m.Order)
		for i := range uHist[j] {
			uHist[j][i] = m.UMean[j]
		}
	}
	for i := range yHist {
		yHist[i] = m.YMean
	}
	for t := 0; t < n; t++ {
		y[t] = m.Predict(yHist, uHist)
		// Shift histories.
		copy(yHist[1:], yHist[:m.Order-1])
		yHist[0] = y[t]
		for j := 0; j < m.NumInputs; j++ {
			copy(uHist[j][1:], uHist[j][:m.Order-1])
			uHist[j][0] = u[j][t]
		}
	}
	return y
}

// DCGain returns the steady-state gain from each input to the output:
// G_j = Σᵢ b_{j,i} / (1 − Σᵢ a_i).
func (m *Model) DCGain() []float64 {
	den := 1.0
	for _, a := range m.A {
		den -= a
	}
	out := make([]float64, m.NumInputs)
	for j := range out {
		num := 0.0
		for _, b := range m.B[j] {
			num += b
		}
		if math.Abs(den) < 1e-12 {
			out[j] = math.Inf(1)
			continue
		}
		out[j] = num / den
	}
	return out
}

// Stable reports whether the model's autoregressive part is Schur stable
// (all companion-matrix eigenvalues inside the unit circle).
func (m *Model) Stable() bool {
	n := m.Order
	comp := mat.New(n, n)
	for i := 0; i < n; i++ {
		comp.Set(0, i, m.A[i])
	}
	for i := 1; i < n; i++ {
		comp.Set(i, i-1, 1)
	}
	return mat.SpectralRadius(comp) < 1
}
