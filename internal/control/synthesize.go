package control

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"github.com/maya-defense/maya/internal/mat"
)

// Spec holds the designer parameters of §II-C / §V-A.
type Spec struct {
	// InputWeights set the relative cost of moving each input (the paper
	// sets all to 1 because actuation overheads are similar).
	InputWeights []float64
	// Guardband is the uncertainty guardband: the margin of unmodeled
	// behaviour the controller must tolerate (paper: 0.40). Larger values
	// detune the controller (larger input-rate penalty), trading tracking
	// tightness for robustness.
	Guardband float64
	// TrackingWeight prices squared tracking error (W⁻²); raising it
	// tightens the achievable output-deviation bound.
	TrackingWeight float64
	// IntegralWeight prices the accumulated error state.
	IntegralWeight float64
	// RateWeight is the base penalty on input changes per step.
	RateWeight float64
	// InputHoldWeight is a small penalty keeping inputs near the operating
	// point; it makes otherwise-free input drift observable to the design
	// (required for the Riccati iteration to stabilize the input-memory
	// states).
	InputHoldWeight float64
	// DisturbanceVar is the assumed per-step variance of the output
	// disturbance random walk (application activity + mask movement).
	DisturbanceVar float64
	// MeasurementVar is the sensor noise variance (W²).
	MeasurementVar float64
	// ProcessVar scales state process noise through the input matrix.
	ProcessVar float64
	// RestPoint is the normalized input vector the controller idles at and
	// that the hold cost pulls toward; it resolves the null space of
	// power-equivalent input combinations. nil uses the identified
	// operating point, but an efficiency-oriented rest (high DVFS, low
	// idle, low balloon) avoids standoffs where the balloon burns power
	// that idle injection then throttles away.
	RestPoint []float64
}

// DefaultSpec returns the parameters used for the paper's deployment:
// all input weights 1 and a 40% uncertainty guardband (§V-A).
func DefaultSpec(numInputs int) Spec {
	w := make([]float64, numInputs)
	for i := range w {
		w[i] = 1
	}
	return Spec{
		InputWeights:    w,
		Guardband:       0.40,
		TrackingWeight:  1.0,
		IntegralWeight:  0.5,
		RateWeight:      0.005,
		InputHoldWeight: 1e-3,
		DisturbanceVar:  1.0,
		MeasurementVar:  0.09,
		ProcessVar:      0.25,
		RestPoint:       []float64{0.85, 0.10, 0.15},
	}
}

// Report summarizes a synthesis result, mirroring what the paper's tools
// report back to the designer.
type Report struct {
	// ControllerDim is the state dimension of the synthesized controller.
	ControllerDim int
	// ClosedLoopRadius is the spectral radius of the nominal closed loop
	// (< 1 means stable).
	ClosedLoopRadius float64
	// DeviationBound is the predicted worst-case output deviation per unit
	// disturbance step — the "smallest output deviation bounds the
	// controller can provide" for the chosen guardband (§V-A).
	DeviationBound float64
	// SettleSteps is the predicted number of periods to remove 90% of a
	// disturbance step.
	SettleSteps int
	// ClosedLoopPoles are the nominal closed loop's eigenvalues (plant +
	// controller), sorted by magnitude descending; all must lie strictly
	// inside the unit circle.
	ClosedLoopPoles []complex128
}

// Synthesize designs a controller for the plant under the spec and returns
// it with a synthesis report. It fails if the Riccati iterations do not
// converge or the resulting closed loop is unstable.
func Synthesize(plant *StateSpace, spec Spec) (*Controller, *Report, error) {
	n := plant.Order()
	nu := plant.NumInputs()
	if len(spec.InputWeights) != nu {
		return nil, nil, fmt.Errorf("control: %d input weights for %d inputs", len(spec.InputWeights), nu)
	}
	for _, w := range spec.InputWeights {
		if w <= 0 {
			return nil, nil, errors.New("control: input weights must be positive")
		}
	}
	if spec.Guardband < 0 {
		return nil, nil, errors.New("control: negative guardband")
	}

	a, b, c := plant.A, plant.B, plant.C

	// ---- LQR servo design on the augmented state [x; u_prev; z] with
	// control v = Δu:
	//   x⁺      = A x + B (u_prev + v)
	//   u_prev⁺ = u_prev + v
	//   z⁺      = z − C x        (z integrates the tracking error)
	na := n + nu + 1
	alq := mat.New(na, na)
	alq.SetSlice(0, 0, a)
	alq.SetSlice(0, n, b)
	for j := 0; j < nu; j++ {
		alq.Set(n+j, n+j, 1)
	}
	for j := 0; j < n; j++ {
		alq.Set(n+nu, j, -c.At(0, j))
	}
	alq.Set(n+nu, n+nu, 1)

	blq := mat.New(na, nu)
	blq.SetSlice(0, 0, b)
	for j := 0; j < nu; j++ {
		blq.Set(n+j, j, 1)
	}

	qlq := mat.New(na, na)
	// Tracking error cost through CᵀC.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			qlq.Set(i, j, spec.TrackingWeight*c.At(0, i)*c.At(0, j))
		}
	}
	for j := 0; j < nu; j++ {
		qlq.Set(n+j, n+j, spec.InputHoldWeight)
	}
	qlq.Set(n+nu, n+nu, spec.IntegralWeight)

	gb := (1 + spec.Guardband) * (1 + spec.Guardband)
	rv := make([]float64, nu)
	for j := 0; j < nu; j++ {
		rv[j] = spec.RateWeight * spec.InputWeights[j] * gb
	}
	rlq := mat.Diag(rv)

	kAll, err := mat.LQRGain(alq, blq, qlq, rlq)
	if err != nil {
		return nil, nil, fmt.Errorf("control: LQR synthesis failed: %w", err)
	}
	kx := kAll.Slice(0, nu, 0, n)
	ku := kAll.Slice(0, nu, n, n+nu)
	kzM := kAll.Slice(0, nu, n+nu, n+nu+1)
	kz := make([]float64, nu)
	for j := 0; j < nu; j++ {
		kz[j] = kzM.At(j, 0)
	}

	// ---- Observer design on [x; d] with measurement m = C x + d, via the
	// dual LQR problem (Kalman predictor gain).
	no := n + 1
	ao := mat.New(no, no)
	ao.SetSlice(0, 0, a)
	ao.Set(n, n, 1)
	co := mat.New(1, no)
	for j := 0; j < n; j++ {
		co.Set(0, j, c.At(0, j))
	}
	co.Set(0, n, 1)
	// Process noise: input-driven state noise + disturbance agility.
	qn := b.Mul(b.T()).Scale(spec.ProcessVar)
	qo := mat.New(no, no)
	qo.SetSlice(0, 0, qn)
	for i := 0; i < n; i++ {
		qo.Set(i, i, qo.At(i, i)+1e-6)
	}
	qo.Set(n, n, spec.DisturbanceVar)
	ro := mat.FromRows([][]float64{{spec.MeasurementVar}})
	kDual, err := mat.LQRGain(ao.T(), co.T(), qo, ro)
	if err != nil {
		return nil, nil, fmt.Errorf("control: observer synthesis failed: %w", err)
	}
	l := kDual.T() // no × 1
	lx := make([]float64, n)
	for i := 0; i < n; i++ {
		lx[i] = l.At(i, 0)
	}
	ld := l.At(n, 0)

	// The runtime operating point: deviations are measured from here. For a
	// linear model the choice is free (the disturbance estimate absorbs the
	// output offset); the rest point anchors the hold cost's preference.
	op := plant.UMean
	if spec.RestPoint != nil {
		if len(spec.RestPoint) != nu {
			return nil, nil, fmt.Errorf("control: rest point has %d entries for %d inputs", len(spec.RestPoint), nu)
		}
		op = spec.RestPoint
	}
	k := newController(gains{
		a: rowMajor(a), b: rowMajor(b), c: rowMajor(c),
		kx: rowMajor(kx), ku: rowMajor(ku), kz: kz, lx: lx, ld: ld,
		uMean: append([]float64(nil), op...),
		yMean: plant.YMean,
		n:     n, nu: nu,
	})
	dim := k.Dim()

	rep := &Report{ControllerDim: dim}
	rep.ClosedLoopPoles = closedLoopPoles(plant, k)
	for _, p := range rep.ClosedLoopPoles {
		if m := cmplx.Abs(p); m > rep.ClosedLoopRadius {
			rep.ClosedLoopRadius = m
		}
	}
	if rep.ClosedLoopRadius >= 1 {
		return nil, nil, fmt.Errorf("control: synthesized loop unstable (ρ=%.4f)", rep.ClosedLoopRadius)
	}
	rep.DeviationBound, rep.SettleSteps = disturbanceResponse(plant, k)
	return k, rep, nil
}

// closedLoopPoles computes the eigenvalues of the nominal closed loop
// formed by the plant model and the controller's linear matrices, sorted
// by magnitude descending.
func closedLoopPoles(plant *StateSpace, k *Controller) []complex128 {
	poles := mat.Eigenvalues(closedLoopMatrix(plant, k))
	sort.Slice(poles, func(i, j int) bool { return cmplx.Abs(poles[i]) > cmplx.Abs(poles[j]) })
	return poles
}

// closedLoopMatrix assembles the combined plant+controller state matrix.
func closedLoopMatrix(plant *StateSpace, k *Controller) *mat.Matrix {
	ak, bk, ck, dk := k.Matrices()
	n := plant.Order()
	dim := n + ak.Rows()
	acl := mat.New(dim, dim)
	// Plant: x⁺ = A x + B u, u = Ck ξ + Dk e, e = r − y = −C x (r = 0).
	// Controller: ξ⁺ = Ak ξ + Bk e.
	a, b, c := plant.A, plant.B, plant.C
	// Top-left: A − B Dk C.
	bdk := b.Mul(dk) // n × 1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acl.Set(i, j, a.At(i, j)-bdk.At(i, 0)*c.At(0, j))
		}
	}
	// Top-right: B Ck.
	acl.SetSlice(0, n, b.Mul(ck))
	// Bottom-left: −Bk C.
	for i := 0; i < ak.Rows(); i++ {
		for j := 0; j < n; j++ {
			acl.Set(n+i, j, -bk.At(i, 0)*c.At(0, j))
		}
	}
	// Bottom-right: Ak.
	acl.SetSlice(n, n, ak)
	return acl
}

// disturbanceResponse simulates the nominal loop's rejection of a unit
// output-disturbance step and returns (peak |error|, periods to fall below
// 10% of the step).
func disturbanceResponse(plant *StateSpace, kproto *Controller) (float64, int) {
	k := kproto.Clone() // fresh controller state for the simulation
	n := plant.Order()
	x := make([]float64, n)
	xNext := make([]float64, n)
	const horizon = 400
	peak := 0.0
	settle := horizon
	const dStep = 1.0
	u := make([]float64, kproto.nu)
	for t := 0; t < horizon; t++ {
		y := plant.C.MulVec(x)[0] + dStep // output disturbance of 1 W
		e := -y                           // target r = 0
		if a := math.Abs(e); a > peak {
			peak = a
		}
		if math.Abs(e) < 0.1*dStep && settle == horizon {
			settle = t
		} else if math.Abs(e) >= 0.1*dStep {
			settle = horizon
		}
		out := k.Step(e)
		for j := range u {
			u[j] = out[j] - k.uMean[j]
		}
		plant.A.MulVecTo(xNext, x)
		bu := plant.B.MulVec(u)
		for i := range xNext {
			xNext[i] += bu[i]
		}
		copy(x, xNext)
	}
	return peak, settle
}
