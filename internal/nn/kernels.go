package nn

import "math"

// The training loop's two innermost kernels, as plain Go. adamUpdate
// applies one Adam step; gatherAxpy adds a list of scaled matrix rows into
// one output row, and every forward and gradient kernel in batch.go is one
// gatherAxpy call per output row.
//
// On amd64 both are assembly (kernels_amd64.s), and these loops are the
// reference the tests and fuzzers pin them to bit for bit: adamUpdate is
// SSE2, and gatherAxpy is an AVX2 kernel where the CPU and OS support it,
// chosen once at package init by a CPUID check, or an SSE2 kernel
// otherwise. On every other GOARCH these loops are the implementation
// (kernels_other.go). SSE2's and AVX's packed add, multiply, divide and
// square root round each lane exactly as the scalar instructions the Go
// compiler emits for these loops, the assembly applies them in the same
// order with no fused multiply-add, and so the two agree on every bit
// except a NaN's payload, which Go leaves undefined.

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

// gatherAxpyGeneric adds len(xs) scaled rows of the row-major matrix m,
// whose rows are len(o) wide, into o: for every j,
// o[j] = o[j] + xs[0]·m[idx[0]·len(o)+j] + xs[1]·m[idx[1]·len(o)+j] + …,
// associated left to right. Indices may repeat and come in any order. idx
// must hold at least len(xs) elements, and m every row they name.
//
//maya:hotpath
func gatherAxpyGeneric(o, xs []float64, idx []int32, m []float64) {
	idx = idx[:len(xs)]
	n := len(o)
	for k, x := range xs {
		r := m[int(idx[k])*n:]
		r = r[:n]
		for j, rv := range r {
			o[j] += x * rv
		}
	}
}
