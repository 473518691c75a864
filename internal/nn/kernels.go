package nn

import "math"

// The training loop's three innermost kernels, as plain Go. On amd64,
// adamUpdate, axpy4 and axpy1 are SSE2 versions of these loops
// (kernels_amd64.s) and these are the reference the tests and fuzzers pin
// them to bit for bit; on every other GOARCH they are the implementation
// (kernels_other.go). SSE2's packed add, multiply, divide and square root
// round each lane exactly as the scalar instructions the Go compiler emits
// for these loops, and the assembly applies them in the same order, so the
// two agree on every bit except a NaN's payload, which Go leaves undefined.

// Adam's hyperparameters. Go folds 1-beta1 and 1-beta2 exactly and rounds
// once, to 0x3fb999999999999a and 0x3f50624dd2f1a9fc; the assembly loads
// those same bits.
const adamBeta1, adamBeta2, adamEps = 0.9, 0.999, 1e-8

// adamUpdateGeneric applies one Adam step to every element of p: the
// gradient g is scaled and decayed, the moments m and v advance, and p
// moves by the bias-corrected step, where im is lr/c1 and isq is 1/√c2 for
// the step's bias corrections c1 and c2. It writes zero back into each
// gradient element it reads, so g is clear for the next minibatch. g, m and
// v must hold at least len(p) elements.
//
//maya:hotpath
func adamUpdateGeneric(p, g, m, v []float64, scale, decay, im, isq float64) {
	g = g[:len(p)]
	m = m[:len(p)]
	v = v[:len(p)]
	for i, pi := range p {
		gi := g[i]*scale + decay*pi
		g[i] = 0
		mi := adamBeta1*m[i] + (1-adamBeta1)*gi
		vi := adamBeta2*v[i] + (1-adamBeta2)*gi*gi
		m[i] = mi
		v[i] = vi
		p[i] = pi - im*mi/(math.Sqrt(vi)*isq+adamEps)
	}
}

// axpy4Generic adds four scaled rows into o:
// o[j] = o[j] + x0·r0[j] + x1·r1[j] + x2·r2[j] + x3·r3[j], associated left
// to right, which is the order a loop adding the four rows one at a time
// sums them in. Each row must hold at least len(o) elements.
//
//maya:hotpath
func axpy4Generic(o []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float64) {
	r0 = r0[:len(o)]
	r1 = r1[:len(o)]
	r2 = r2[:len(o)]
	r3 = r3[:len(o)]
	for j := range o {
		o[j] = o[j] + x0*r0[j] + x1*r1[j] + x2*r2[j] + x3*r3[j]
	}
}

// axpy1Generic adds one scaled row into o: o[j] += x·r[j]. r must hold at
// least len(o) elements.
//
//maya:hotpath
func axpy1Generic(o []float64, x float64, r []float64) {
	r = r[:len(o)]
	for j, rv := range r {
		o[j] += x * rv
	}
}
