package control

import (
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/mat"
)

// Controller is the runtime state machine of Eq. 1:
//
//	x(T+1) = A·x(T) + B·Δy(T)
//	u(T)   = C·x(T) + D·Δy(T)
//
// operating on the scalar tracking error Δy = r − y and producing the
// normalized input vector u ∈ [0,1]^nu. The matrices are produced by
// Synthesize. Saturation of u to [0,1] and integrator anti-windup are the
// only nonlinearities; in the unsaturated region Step is exactly the linear
// recursion above (verified by tests against Matrices()).
//
// Internally the state is structured as [x̂ (plant estimate); d̂ (output
// disturbance estimate); z (error integrator); u_prev (last input,
// deviation coords)].
type Controller struct {
	gains

	// Mutable state.
	xhat  []float64
	dhat  float64
	z     float64
	uPrev []float64 // deviation coordinates

	// zClamp, when positive, bounds the error integrator to |z| <= zClamp
	// (anti-windup hard clamp). The back-calculation below handles normal
	// saturation; the clamp is the backstop against unbounded windup when
	// the plant misbehaves for long stretches — faulty sensors feeding a
	// persistent bias, or actuators stuck outside the loop's authority.
	// Zero (the default) disables it, leaving Step bit-identical to the
	// unclamped recursion.
	zClamp float64

	// lastSat records whether the most recent step saturated an input.
	lastSat bool

	// Scratch buffers (Step allocates nothing).
	xNext, v, uOut []float64
}

// gains are a controller's constants: the plant model pieces (deviation
// coordinates) and the feedback and observer gains, with the matrices
// flattened row-major so Step indexes plain slices. They are never mutated
// after construction, so every Clone shares them.
type gains struct {
	a, b, c []float64 // plant model: n×n, n×nu, 1×n
	kx, ku  []float64 // state and input-memory feedback: nu×n, nu×nu
	kz      []float64 // nu integrator feedback
	lx      []float64 // n observer gain (plant states)
	ld      float64   // observer gain (disturbance state)
	uMean   []float64 // operating point of inputs (norm space)
	yMean   float64
	n, nu   int
}

// newController returns a controller with gains g in the reset state. It
// is the one constructor: Synthesize, Load and Clone all build through it.
func newController(g gains) *Controller {
	return &Controller{
		gains: g,
		xhat:  make([]float64, g.n),
		uPrev: make([]float64, g.nu),
		xNext: make([]float64, g.n),
		v:     make([]float64, g.nu),
		uOut:  make([]float64, g.nu),
	}
}

// rowMajor flattens m row by row.
func rowMajor(m *mat.Matrix) []float64 {
	out := make([]float64, 0, m.Rows()*m.Cols())
	for i := 0; i < m.Rows(); i++ {
		out = append(out, m.Row(i)...)
	}
	return out
}

// Dim returns the controller state dimension (paper §V-A: 11 with their
// µ-synthesis weights; 9 for this LQG servo structure with an order-4
// model).
func (k *Controller) Dim() int { return k.n + 2 + k.nu }

// NumInputs returns the number of actuated inputs.
func (k *Controller) NumInputs() int { return k.nu }

// StorageBytes returns the bytes of constant matrices plus mutable state —
// the paper reports "less than 1 Kbyte of storage" (§VII-E).
func (k *Controller) StorageBytes() int {
	consts := k.n*k.n + k.n*k.nu + k.n + // a, b, c
		k.nu*k.n + k.nu*k.nu + k.nu + // kx, ku, kz
		k.n + 1 + // lx, ld
		k.nu + 1 // uMean, yMean
	state := k.n + 1 + 1 + k.nu
	return 8 * (consts + state)
}

// Ops returns an estimate of multiply-accumulate operations per Step
// (paper §VII-E: ≈200 fixed-point operations): observer (n² + 2·n·nu +
// 2n), feedback (nu·n + nu² + 2nu), innovation (n).
func (k *Controller) Ops() int {
	n, nu := k.n, k.nu
	return n*n + 2*n*nu + 2*n + nu*n + nu*nu + 2*nu + n
}

// Reset zeroes the controller state. The first inputs emitted after a reset
// sit at the identified operating point.
func (k *Controller) Reset() {
	for i := range k.xhat {
		k.xhat[i] = 0
	}
	k.dhat, k.z = 0, 0
	for i := range k.uPrev {
		k.uPrev[i] = 0
	}
	k.lastSat = false
}

// Step consumes the tracking error Δy(T) = target − measured and returns
// the next normalized inputs u ∈ [0,1]^nu. The returned slice is reused
// across calls; callers must copy it if they retain it.
//
// Every matrix-vector product is summed in ascending index from a 0.0
// seed, and the observer update groups as A·x̂ + (B·v + Lx·ν); the
// controller's bit-exact goldens depend on both.
//
//maya:hotpath
func (k *Controller) Step(deltaY float64) []float64 {
	n, nu := k.n, k.nu
	xhat, uPrev := k.xhat[:n], k.uPrev[:nu]
	v, uOut := k.v[:nu], k.uOut[:nu]
	kz, uMean := k.kz[:nu], k.uMean[:nu]

	// Innovation: measurement is m = y − r = −Δy; predicted m̂ = C x̂ + d̂.
	cx := 0.0
	for j, c := range k.c[:n] {
		cx += c * xhat[j]
	}
	innov := -deltaY - cx - k.dhat

	// Integrator (provisional; anti-windup may pull it back).
	zNew := k.z + deltaY

	// Input rate v = −Kx x̂ − Ku u_prev − Kz z.
	for j := range v {
		kxX := 0.0
		for i, g := range k.kx[j*n : (j+1)*n] {
			kxX += g * xhat[i]
		}
		kuU := 0.0
		for i, g := range k.ku[j*nu : (j+1)*nu] {
			kuU += g * uPrev[i]
		}
		v[j] = -kxX - kuU - kz[j]*zNew
	}

	// Raw and saturated inputs (normalized space).
	sat := false
	for j := range uOut {
		raw := uPrev[j] + v[j] + uMean[j]
		clipped := raw
		if clipped < 0 {
			clipped = 0
		}
		if clipped > 1 {
			clipped = 1
		}
		if clipped != raw { //nolint:maya/floateq clipped is raw or a clamp bound; equality is exact by construction
			sat = true
		}
		uOut[j] = clipped
	}

	// Anti-windup: back-calculate the integrator only when the loop is
	// genuinely out of authority — i.e., no input can still move in the
	// direction the integrator is pushing it. (Back-calculating whenever
	// any single input clips would freeze integral action for the other,
	// unsaturated inputs: with three actuators of very different ranges
	// one of them is pinned much of the time.)
	if sat {
		exhausted := true
		for j := range uOut {
			want := -kz[j] * zNew // direction the integrator pushes input j
			if (want > 0 && uOut[j] < 1) || (want < 0 && uOut[j] > 0) {
				exhausted = false
				break
			}
		}
		if exhausted {
			num, den := 0.0, 1e-12
			for j := range uOut {
				raw := uPrev[j] + v[j] + uMean[j]
				num += kz[j] * (raw - uOut[j])
				den += kz[j] * kz[j]
			}
			zNew += num / den
		}
	}
	if k.zClamp > 0 {
		if zNew > k.zClamp {
			zNew = k.zClamp
		} else if zNew < -k.zClamp {
			zNew = -k.zClamp
		}
	}
	k.z = zNew

	// Observer predict with the input actually applied; that deviation is
	// also the next u_prev.
	for j := range v {
		v[j] = uOut[j] - uMean[j]
	}
	xNext := k.xNext[:n]
	for i := range xNext {
		ax := 0.0
		for j, g := range k.a[i*n : (i+1)*n] {
			ax += g * xhat[j]
		}
		bv := 0.0
		for j, g := range k.b[i*nu : (i+1)*nu] {
			bv += g * v[j]
		}
		xNext[i] = ax + (bv + k.lx[i]*innov)
	}
	copy(xhat, xNext)
	k.dhat += k.ld * innov
	copy(uPrev, v)
	k.lastSat = sat
	return uOut
}

// SetIntegratorClamp bounds the error integrator to |z| <= limit (0
// disables, the default). See the zClamp field notes: this is the
// graceful-degradation backstop used by the engine's measurement guard;
// nominal runs never hit a sensibly sized clamp, so enabling it does not
// perturb fault-free behaviour.
func (k *Controller) SetIntegratorClamp(limit float64) {
	if limit < 0 {
		limit = 0
	}
	k.zClamp = limit
}

// IntegratorClamp returns the current clamp (0 = disabled).
func (k *Controller) IntegratorClamp() float64 { return k.zClamp }

// Saturated reports whether the most recent Step clipped any input to
// [0,1]. Sustained saturation means the mask target is outside the
// actuators' authority — exactly the condition under which the measured
// power stops following the mask and starts leaking the workload.
func (k *Controller) Saturated() bool { return k.lastSat }

// StateNorm returns the L2 norm of the structured controller state
// [x̂; d̂; z; u_prev] without allocating (unlike State, which copies).
func (k *Controller) StateNorm() float64 {
	s := k.dhat*k.dhat + k.z*k.z
	for _, v := range k.xhat {
		s += v * v
	}
	for _, v := range k.uPrev {
		s += v * v
	}
	return math.Sqrt(s)
}

// Matrices assembles the equivalent Eq. 1 matrices (A, B, C, D) of the
// controller's linear (unsaturated) behaviour, with state ordering
// [x̂; d̂; z; u_prev] and deviation-coordinate outputs (add UMean for the
// normalized inputs). Exposed for verification, for export, and because the
// paper defines the controller by these matrices.
func (k *Controller) Matrices() (A, B, C, D *mat.Matrix) {
	n, nu := k.n, k.nu
	dim := n + 2 + nu
	A = mat.New(dim, dim)
	B = mat.New(dim, 1)
	C = mat.New(nu, dim)
	D = mat.New(nu, 1)

	// Output rows: u_dev = −Kx x̂ − Kz d̂·0 − Kz (z + e) + (I − Ku) u_prev.
	for j := 0; j < nu; j++ {
		for i := 0; i < n; i++ {
			C.Set(j, i, -k.kx[j*n+i])
		}
		C.Set(j, n+1, -k.kz[j]) // z column
		for i := 0; i < nu; i++ {
			idm := 0.0
			if i == j {
				idm = 1
			}
			C.Set(j, n+2+i, idm-k.ku[j*nu+i])
		}
		D.Set(j, 0, -k.kz[j]) // direct term via the integrator update
	}

	// ν = −e − C x̂ − d̂.
	// x̂⁺ = A x̂ + B u_dev + Lx ν.
	for i := 0; i < n; i++ {
		for jj := 0; jj < n; jj++ {
			A.Set(i, jj, k.a[i*n+jj]-k.lx[i]*k.c[jj])
		}
		A.Set(i, n, A.At(i, n)-k.lx[i]) // d̂ column
		// B u_dev contribution: expand u_dev rows from C/D.
		for col := 0; col < dim; col++ {
			s := 0.0
			for j := 0; j < nu; j++ {
				s += k.b[i*nu+j] * C.At(j, col)
			}
			A.Set(i, col, A.At(i, col)+s)
		}
		bs := 0.0
		for j := 0; j < nu; j++ {
			bs += k.b[i*nu+j] * D.At(j, 0)
		}
		B.Set(i, 0, bs-k.lx[i])
	}

	// d̂⁺ = d̂ + Ld ν.
	for jj := 0; jj < n; jj++ {
		A.Set(n, jj, -k.ld*k.c[jj])
	}
	A.Set(n, n, 1-k.ld)
	B.Set(n, 0, -k.ld)

	// z⁺ = z + e.
	A.Set(n+1, n+1, 1)
	B.Set(n+1, 0, 1)

	// u_prev⁺ = u_dev.
	for j := 0; j < nu; j++ {
		for col := 0; col < dim; col++ {
			A.Set(n+2+j, col, C.At(j, col))
		}
		B.Set(n+2+j, 0, D.At(j, 0))
	}
	return A, B, C, D
}

// Clone returns an independent controller with the same gains, which it
// shares, the same integrator clamp, and a fresh (zero) state. Synthesis is
// done once per machine; each protected run gets its own clone.
func (k *Controller) Clone() *Controller {
	c := newController(k.gains)
	c.zClamp = k.zClamp
	return c
}

// State returns a copy of the structured controller state (for telemetry).
func (k *Controller) State() []float64 {
	out := make([]float64, 0, k.Dim())
	out = append(out, k.xhat...)
	out = append(out, k.dhat, k.z)
	out = append(out, k.uPrev...)
	return out
}

func (k *Controller) String() string {
	return fmt.Sprintf("control.Controller{dim=%d, inputs=%d, ops/step≈%d, storage=%dB}",
		k.Dim(), k.nu, k.Ops(), k.StorageBytes())
}
