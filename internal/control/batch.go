package control

import "math"

// StateView is the minimal controller surface the engine's post-step logic
// consumes: the saturation flag of the most recent step, the state norm for
// blow-up detection, and a state reset for recovery. Both the scalar
// Controller and one tenant column of a Bank satisfy it, which is how
// core.Engine.FinishStep runs unchanged over either backing store.
type StateView interface {
	Saturated() bool
	StateNorm() float64
	Reset()
}

// Bank is a structure-of-arrays batch of T controllers sharing one set of
// gain matrices (A, B, C, Kx, Ku, Kz, Lx, Ld are constant across a fleet
// protected by the same design). Per-tenant state lives in tenant-contiguous
// slabs — row i of x̂ is xhat[i·T : (i+1)·T] — so StepAll loads each matrix
// element once and streams it across all tenants, instead of re-walking the
// matrices per tenant as T independent Controller.Step calls would.
//
// StepAll is bit-for-bit identical, per tenant, to Controller.Step on a
// clone of the prototype: every per-tenant accumulation runs in the exact
// order of the scalar code (ascending-j matrix walks starting from 0, the
// same saturation/anti-windup branches, the same observer update ordering).
// TestBankMatchesController pins this; the fleet differential harness pins
// it end-to-end through the engine.
//
// Like Controller, a Bank is single-goroutine: one fleet engine owns it.
type Bank struct {
	// Shared constants, flattened row-major from the prototype's matrices
	// so the kernels index raw slices instead of calling At.
	a, b, c    []float64 // n×n, n×nu, 1×n
	kx, ku     []float64 // nu×n, nu×nu
	kz, lx     []float64
	ld         float64
	uMean      []float64
	n, nu, len int
	zClamp     float64

	// Per-tenant state slabs (tenant-contiguous per row).
	xhat  []float64 // n×T
	dhat  []float64 // T
	z     []float64 // T
	uPrev []float64 // nu×T

	// Per-tenant step instrumentation, mirroring Controller's.
	steps    []uint64
	satSteps []uint64
	lastSat  []bool

	// Scratch slabs (StepAll allocates nothing).
	cx, nuv, zNew []float64 // T
	kxX, vv, uOut []float64 // nu×T
	xNext, bu     []float64 // n×T
	uT            []float64 // T×nu tenant-major copy of uOut for U(t)
	sat           []bool    // T, this step's per-tenant saturation flags
	views         []BankTenant
}

// NewBank builds a bank of tenants controllers from a prototype, each with
// fresh (zero) state — the state a freshly Cloned and Reset Controller
// carries. The prototype's gains and integrator clamp are copied; its
// mutable state is not read.
func NewBank(proto *Controller, tenants int) *Bank {
	if tenants <= 0 {
		panic("control: NewBank needs at least one tenant")
	}
	n, nu := proto.n, proto.nu
	b := &Bank{
		a:      flatten(proto.a.Rows(), proto.a.Cols(), proto.a.At),
		b:      flatten(proto.b.Rows(), proto.b.Cols(), proto.b.At),
		c:      flatten(proto.c.Rows(), proto.c.Cols(), proto.c.At),
		kx:     flatten(proto.kx.Rows(), proto.kx.Cols(), proto.kx.At),
		ku:     flatten(proto.ku.Rows(), proto.ku.Cols(), proto.ku.At),
		kz:     append([]float64(nil), proto.kz...),
		lx:     append([]float64(nil), proto.lx...),
		ld:     proto.ld,
		uMean:  append([]float64(nil), proto.uMean...),
		n:      n,
		nu:     nu,
		len:    tenants,
		zClamp: proto.zClamp,

		xhat:  make([]float64, n*tenants),
		dhat:  make([]float64, tenants),
		z:     make([]float64, tenants),
		uPrev: make([]float64, nu*tenants),

		steps:    make([]uint64, tenants),
		satSteps: make([]uint64, tenants),
		lastSat:  make([]bool, tenants),

		cx:    make([]float64, tenants),
		nuv:   make([]float64, tenants),
		zNew:  make([]float64, tenants),
		kxX:   make([]float64, nu*tenants),
		vv:    make([]float64, nu*tenants),
		uOut:  make([]float64, nu*tenants),
		xNext: make([]float64, n*tenants),
		bu:    make([]float64, n*tenants),
		uT:    make([]float64, tenants*nu),
		sat:   make([]bool, tenants),
	}
	b.views = make([]BankTenant, tenants)
	for t := range b.views {
		b.views[t] = BankTenant{b: b, t: t}
	}
	return b
}

// flatten copies a matrix into a row-major slice via its accessor.
func flatten(rows, cols int, at func(i, j int) float64) []float64 {
	out := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[i*cols+j] = at(i, j)
		}
	}
	return out
}

// SetIntegratorClamp bounds every tenant's error integrator to |z| <= limit
// (0 disables), exactly like Controller.SetIntegratorClamp.
func (b *Bank) SetIntegratorClamp(limit float64) {
	if limit < 0 {
		limit = 0
	}
	b.zClamp = limit
}

// U returns tenant t's inputs from the most recent StepAll, as the same
// [0,1]^nu vector Controller.Step returns. The slice aliases bank scratch
// and is overwritten by the next StepAll.
func (b *Bank) U(t int) []float64 { return b.uT[t*b.nu : (t+1)*b.nu] }

// Tenant returns the StateView of tenant t (no allocation: views are
// prebuilt).
func (b *Bank) Tenant(t int) *BankTenant { return &b.views[t] }

// StepAll advances every active tenant one control step with its own
// tracking error deltaY[t]. A nil active slice steps every tenant; an
// inactive tenant's state, outputs, and counters are left exactly as they
// were (its controller never woke up — the deadline-miss semantics of
// fault.FaultyPolicy).
//
//maya:hotpath
func (b *Bank) StepAll(deltaY []float64, active []bool) {
	T := b.len
	checkStepAllLens(len(deltaY) == T, active == nil || len(active) == T)
	n, nu := b.n, b.nu

	// Innovation: ν = −Δy − C·x̂ − d̂, accumulated in ascending j exactly
	// like the scalar loop. Inactive tenants' scratch is computed too (their
	// state is read-only here); only the commit phases below skip them.
	mulSlab(b.cx, b.c, b.xhat, 1, n, T)
	for t := 0; t < T; t++ {
		b.nuv[t] = -deltaY[t] - b.cx[t] - b.dhat[t]
		b.zNew[t] = b.z[t] + deltaY[t]
	}

	// Input rate v = −Kx x̂ − Ku u_prev − Kz z.
	mulSlab(b.kxX, b.kx, b.xhat, nu, n, T)
	mulSlab(b.vv, b.ku, b.uPrev, nu, nu, T)
	if nu == 3 {
		kz0, kz1, kz2 := b.kz[0], b.kz[1], b.kz[2]
		k0, k1, k2 := b.kxX[:T], b.kxX[T:2*T], b.kxX[2*T:3*T]
		v0, v1, v2 := b.vv[:T], b.vv[T:2*T], b.vv[2*T:3*T]
		for t := 0; t < T; t++ {
			zn := b.zNew[t]
			v0[t] = -k0[t] - v0[t] - kz0*zn
			v1[t] = -k1[t] - v1[t] - kz1*zn
			v2[t] = -k2[t] - v2[t] - kz2*zn
		}
	} else {
		for j := 0; j < nu; j++ {
			kzj := b.kz[j]
			kxr := b.kxX[j*T : (j+1)*T]
			vr := b.vv[j*T : (j+1)*T]
			for t := 0; t < T; t++ {
				vr[t] = -kxr[t] - vr[t] - kzj*b.zNew[t]
			}
		}
	}

	// Saturation clamp, as contiguous row passes. The scalar code computes
	// clipped from raw with two clamp branches and flags saturation as
	// `clipped != raw`; the three-way test below is the same predicate
	// spelled on raw directly — raw < 0 and raw > 1 are the two clamp
	// cases, and math.IsNaN(raw) catches the only remaining value the
	// scalar inequality fires on (a raw of -0 is clipped to itself there,
	// not to +0, so it neither clamps nor flags here either). Raw inputs
	// are kept (in the kxX scratch, dead after the rate combine above) for
	// the anti-windup back-calculation.
	raws := b.kxX
	if nu == 3 {
		// Every synthesized Maya design actuates the paper's three knobs,
		// so the three input rows are fused into one pass over tenants:
		// raws, clamps, the saturation mask, and the tenant-major transpose
		// all come from a single stream instead of three re-walks plus a
		// scatter. Per tenant the arithmetic is identical to the generic
		// loop — the j rows never interact.
		um0, um1, um2 := b.uMean[0], b.uMean[1], b.uMean[2]
		p0, p1, p2 := b.uPrev[:T], b.uPrev[T:2*T], b.uPrev[2*T:3*T]
		v0, v1, v2 := b.vv[:T], b.vv[T:2*T], b.vv[2*T:3*T]
		r0, r1, r2 := raws[:T], raws[T:2*T], raws[2*T:3*T]
		u0, u1, u2 := b.uOut[:T], b.uOut[T:2*T], b.uOut[2*T:3*T]
		for t := 0; t < T; t++ {
			raw0 := p0[t] + v0[t] + um0
			raw1 := p1[t] + v1[t] + um1
			raw2 := p2[t] + v2[t] + um2
			r0[t], r1[t], r2[t] = raw0, raw1, raw2
			c0, c1, c2 := raw0, raw1, raw2
			sat := false
			if raw0 < 0 {
				c0, sat = 0, true
			} else if raw0 > 1 {
				c0, sat = 1, true
			} else if math.IsNaN(raw0) {
				sat = true
			}
			if raw1 < 0 {
				c1, sat = 0, true
			} else if raw1 > 1 {
				c1, sat = 1, true
			} else if math.IsNaN(raw1) {
				sat = true
			}
			if raw2 < 0 {
				c2, sat = 0, true
			} else if raw2 > 1 {
				c2, sat = 1, true
			} else if math.IsNaN(raw2) {
				sat = true
			}
			u0[t], u1[t], u2[t] = c0, c1, c2
			ut := b.uT[t*3 : t*3+3]
			ut[0], ut[1], ut[2] = c0, c1, c2
			b.sat[t] = sat
		}
	} else {
		for j := 0; j < nu; j++ {
			um := b.uMean[j]
			upr := b.uPrev[j*T : (j+1)*T]
			vr := b.vv[j*T : (j+1)*T]
			rr := raws[j*T : (j+1)*T]
			ur := b.uOut[j*T : (j+1)*T]
			first := j == 0
			for t := 0; t < T; t++ {
				raw := upr[t] + vr[t] + um
				rr[t] = raw
				clipped := raw
				sat := false
				if raw < 0 {
					clipped = 0
					sat = true
				} else if raw > 1 {
					clipped = 1
					sat = true
				} else if math.IsNaN(raw) {
					sat = true
				}
				ur[t] = clipped
				b.uT[t*nu+j] = clipped
				if first {
					b.sat[t] = sat
				} else if sat {
					b.sat[t] = true
				}
			}
		}
	}

	// Anti-windup and integrator commit: branchy and scalar per tenant, in
	// the scalar code's exact order. The back-calculation denominator
	// 1e-12 + Σ kz² is tenant-invariant, so it is accumulated once (same
	// ascending-j order as the scalar loop) and reused.
	den := 1e-12
	for j := 0; j < nu; j++ {
		den += b.kz[j] * b.kz[j]
	}
	if nu == 3 {
		kz0, kz1, kz2 := b.kz[0], b.kz[1], b.kz[2]
		u0, u1, u2 := b.uOut[:T], b.uOut[T:2*T], b.uOut[2*T:3*T]
		r0, r1, r2 := raws[:T], raws[T:2*T], raws[2*T:3*T]
		for t := 0; t < T; t++ {
			if active != nil && !active[t] {
				continue
			}
			sat := b.sat[t]
			zNew := b.zNew[t]
			if sat {
				// The generic loop's early-exit order, unrolled: input j
				// still has headroom if the integrator's pull on it points
				// inside [0, 1].
				exhausted := true
				if w := -kz0 * zNew; (w > 0 && u0[t] < 1) || (w < 0 && u0[t] > 0) {
					exhausted = false
				} else if w := -kz1 * zNew; (w > 0 && u1[t] < 1) || (w < 0 && u1[t] > 0) {
					exhausted = false
				} else if w := -kz2 * zNew; (w > 0 && u2[t] < 1) || (w < 0 && u2[t] > 0) {
					exhausted = false
				}
				if exhausted {
					// Seeded from 0.0 like the generic loop: 0 + (-0) is
					// +0, so folding the first product into the seed would
					// not be bit-safe.
					num := 0.0
					num += kz0 * (r0[t] - u0[t])
					num += kz1 * (r1[t] - u1[t])
					num += kz2 * (r2[t] - u2[t])
					zNew += num / den
				}
				b.satSteps[t]++
			}
			if b.zClamp > 0 {
				if zNew > b.zClamp {
					zNew = b.zClamp
				} else if zNew < -b.zClamp {
					zNew = -b.zClamp
				}
			}
			b.z[t] = zNew
			b.lastSat[t] = sat
			b.steps[t]++
		}
	} else {
		for t := 0; t < T; t++ {
			if active != nil && !active[t] {
				continue
			}
			sat := b.sat[t]
			zNew := b.zNew[t]
			if sat {
				exhausted := true
				for j := 0; j < nu; j++ {
					want := -b.kz[j] * zNew
					if (want > 0 && b.uOut[j*T+t] < 1) || (want < 0 && b.uOut[j*T+t] > 0) {
						exhausted = false
						break
					}
				}
				if exhausted {
					num := 0.0
					for j := 0; j < nu; j++ {
						num += b.kz[j] * (raws[j*T+t] - b.uOut[j*T+t])
					}
					zNew += num / den
				}
				b.satSteps[t]++
			}
			if b.zClamp > 0 {
				if zNew > b.zClamp {
					zNew = b.zClamp
				} else if zNew < -b.zClamp {
					zNew = -b.zClamp
				}
			}
			b.z[t] = zNew
			b.lastSat[t] = sat
			b.steps[t]++
		}
	}

	// Observer predict with the input actually applied. The deviation input
	// feeds the batched matvecs; the deviation of an inactive tenant is
	// stale scratch that the guarded commit below never reads back.
	for j := 0; j < nu; j++ {
		um := b.uMean[j]
		ur := b.uOut[j*T : (j+1)*T]
		vr := b.vv[j*T : (j+1)*T]
		for t := 0; t < T; t++ {
			vr[t] = ur[t] - um
		}
	}
	mulSlab(b.xNext, b.a, b.xhat, n, n, T)
	mulSlab(b.bu, b.b, b.vv, n, nu, T)

	// Commit: x̂ ← A·x̂ + (B·v + Lx·ν), d̂ += Ld·ν, u_prev ← u_dev, for
	// active tenants only. The parenthesized grouping matches the scalar
	// xNext[i] += bu[i] + lx[i]*nu statement.
	if active == nil {
		for i := 0; i < n; i++ {
			lxi := b.lx[i]
			xr := b.xhat[i*T : (i+1)*T]
			xn := b.xNext[i*T : (i+1)*T]
			br := b.bu[i*T : (i+1)*T]
			for t := 0; t < T; t++ {
				xr[t] = xn[t] + (br[t] + lxi*b.nuv[t])
			}
		}
		for t := 0; t < T; t++ {
			b.dhat[t] += b.ld * b.nuv[t]
		}
		// The deviation slab computed above IS the next u_prev; copy it
		// rather than recomputing uOut − uMean a second time.
		copy(b.uPrev, b.vv[:nu*T])
		return
	}
	for i := 0; i < n; i++ {
		lxi := b.lx[i]
		xr := b.xhat[i*T : (i+1)*T]
		xn := b.xNext[i*T : (i+1)*T]
		br := b.bu[i*T : (i+1)*T]
		for t := 0; t < T; t++ {
			if active[t] {
				xr[t] = xn[t] + (br[t] + lxi*b.nuv[t])
			}
		}
	}
	for t := 0; t < T; t++ {
		if active[t] {
			b.dhat[t] += b.ld * b.nuv[t]
		}
	}
	for j := 0; j < nu; j++ {
		vr := b.vv[j*T : (j+1)*T]
		pr := b.uPrev[j*T : (j+1)*T]
		for t := 0; t < T; t++ {
			if active[t] {
				pr[t] = vr[t]
			}
		}
	}
}

// checkStepAllLens panics when StepAll's per-tenant argument slices do not
// match the bank width. It lives outside StepAll so the panic's string
// boxing stays off the //maya:hotpath allocation budget.
func checkStepAllLens(deltaYOK, activeOK bool) {
	if !deltaYOK {
		panic("control: Bank.StepAll deltaY length mismatch")
	}
	if !activeOK {
		panic("control: Bank.StepAll active length mismatch")
	}
}

// mulSlab computes dst = M·src across tenants: dst[r·T+t] = Σ_j M[r,j] ·
// src[j·T+t], with the per-(r,t) sum accumulated in ascending j from 0 —
// the exact order of mat.MulVecTo's scalar loop, so each tenant's result is
// bit-identical to its scalar matvec. Tenants only share the broadcast
// matrix element, never an accumulator, so the tenant-direction unroll
// below is free to reorder nothing. The 4-then-tail column chunking is the
// register-tiling idiom of internal/nn/batch.go: matrix elements are loaded
// once per chunk and amortized over the whole tenant stream, and the chained
// adds associate left-to-right, which is the scalar summation order.
//
//maya:hotpath
func mulSlab(dst, m, src []float64, rows, cols, T int) {
	for r := 0; r < rows; r++ {
		out := dst[r*T:]
		out = out[:T]
		mr := m[r*cols:]
		mr = mr[:cols]
		j := 0
		// The first chunk writes through the scalar loop's 0.0 seed instead
		// of zero-initializing the row in a separate pass. The explicit
		// `0 +` is load-bearing: 0 + (-0) is +0, so the compiler cannot (and
		// does not) fold it away, and the seeded sum matches the scalar
		// accumulator bit for bit.
		switch {
		case cols >= 4:
			m0, m1, m2, m3 := mr[0], mr[1], mr[2], mr[3]
			x0 := src[:T]
			x1 := src[T:]
			x1 = x1[:T]
			x2 := src[2*T:]
			x2 = x2[:T]
			x3 := src[3*T:]
			x3 = x3[:T]
			for t := range out {
				out[t] = 0 + m0*x0[t] + m1*x1[t] + m2*x2[t] + m3*x3[t]
			}
			j = 4
		case cols == 3:
			m0, m1, m2 := mr[0], mr[1], mr[2]
			x0 := src[:T]
			x1 := src[T:]
			x1 = x1[:T]
			x2 := src[2*T:]
			x2 = x2[:T]
			for t := range out {
				out[t] = 0 + m0*x0[t] + m1*x1[t] + m2*x2[t]
			}
			j = 3
		case cols == 2:
			m0, m1 := mr[0], mr[1]
			x0 := src[:T]
			x1 := src[T:]
			x1 = x1[:T]
			for t := range out {
				out[t] = 0 + m0*x0[t] + m1*x1[t]
			}
			j = 2
		case cols == 1:
			m0 := mr[0]
			x0 := src[:T]
			for t := range out {
				out[t] = 0 + m0*x0[t]
			}
			j = 1
		default:
			for t := range out {
				out[t] = 0
			}
		}
		for ; j+4 <= cols; j += 4 {
			m0, m1, m2, m3 := mr[j], mr[j+1], mr[j+2], mr[j+3]
			x0 := src[j*T:]
			x0 = x0[:T]
			x1 := src[(j+1)*T:]
			x1 = x1[:T]
			x2 := src[(j+2)*T:]
			x2 = x2[:T]
			x3 := src[(j+3)*T:]
			x3 = x3[:T]
			for t := range out {
				out[t] = out[t] + m0*x0[t] + m1*x1[t] + m2*x2[t] + m3*x3[t]
			}
		}
		switch cols - j {
		case 3:
			m0, m1, m2 := mr[j], mr[j+1], mr[j+2]
			x0 := src[j*T:]
			x0 = x0[:T]
			x1 := src[(j+1)*T:]
			x1 = x1[:T]
			x2 := src[(j+2)*T:]
			x2 = x2[:T]
			for t := range out {
				out[t] = out[t] + m0*x0[t] + m1*x1[t] + m2*x2[t]
			}
		case 2:
			m0, m1 := mr[j], mr[j+1]
			x0 := src[j*T:]
			x0 = x0[:T]
			x1 := src[(j+1)*T:]
			x1 = x1[:T]
			for t := range out {
				out[t] = out[t] + m0*x0[t] + m1*x1[t]
			}
		case 1:
			m0 := mr[j]
			x0 := src[j*T:]
			x0 = x0[:T]
			for t := range out {
				out[t] = out[t] + m0*x0[t]
			}
		}
	}
}

// StateNorm returns tenant t's structured state L2 norm, summed in the same
// order as Controller.StateNorm.
func (b *Bank) StateNorm(t int) float64 {
	s := b.dhat[t]*b.dhat[t] + b.z[t]*b.z[t]
	for i := 0; i < b.n; i++ {
		v := b.xhat[i*b.len+t]
		s += v * v
	}
	for j := 0; j < b.nu; j++ {
		v := b.uPrev[j*b.len+t]
		s += v * v
	}
	return math.Sqrt(s)
}

// ResetTenant zeroes tenant t's state and counters, exactly like
// Controller.Reset on that tenant's scalar twin.
func (b *Bank) ResetTenant(t int) {
	for i := 0; i < b.n; i++ {
		b.xhat[i*b.len+t] = 0
	}
	b.dhat[t], b.z[t] = 0, 0
	for j := 0; j < b.nu; j++ {
		b.uPrev[j*b.len+t] = 0
	}
	b.steps[t], b.satSteps[t], b.lastSat[t] = 0, 0, false
}

// Saturated reports whether tenant t's most recent step clipped an input.
func (b *Bank) Saturated(t int) bool { return b.lastSat[t] }

// Steps returns tenant t's step count since its last reset.
func (b *Bank) Steps(t int) uint64 { return b.steps[t] }

// SaturatedSteps returns how many of tenant t's steps saturated an input.
func (b *Bank) SaturatedSteps(t int) uint64 { return b.satSteps[t] }

// BankTenant is one tenant column of a Bank viewed through the StateView
// surface core.Engine.FinishStep drives.
type BankTenant struct {
	b *Bank
	t int
}

// Saturated implements StateView.
func (v *BankTenant) Saturated() bool { return v.b.lastSat[v.t] }

// StateNorm implements StateView.
func (v *BankTenant) StateNorm() float64 { return v.b.StateNorm(v.t) }

// Reset implements StateView.
func (v *BankTenant) Reset() { v.b.ResetTenant(v.t) }
