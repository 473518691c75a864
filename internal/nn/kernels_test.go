package nn

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
)

// The fuzzers pin each training kernel to its Go loop in kernels.go over
// arbitrary float64 bit patterns and lengths 0–67, odd ones reaching the
// assembly's scalar tail. On amd64 they compare the SSE2 kernels with the
// Go loops; elsewhere the kernels are the Go loops and the comparison is
// trivially equal.

// maxFuzzLen bounds the kernels' operand length: 67 covers many packed
// iterations and both tail parities.
const maxFuzzLen = 67

// fuzzOperands decodes count operands of n float64s each from data, eight
// little-endian bytes per element, read cyclically so that a short input
// still fills every operand. An empty input gives zeros.
func fuzzOperands(data []byte, count, n int) [][]float64 {
	ops := make([][]float64, count)
	var buf [8]byte
	pos := 0
	for k := range ops {
		ops[k] = make([]float64, n)
		for i := range ops[k] {
			for b := range buf {
				if len(data) > 0 {
					buf[b] = data[pos%len(data)]
					pos++
				}
			}
			ops[k][i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		}
	}
	return ops
}

// floatBytes encodes vs as fuzzOperands reads them.
func floatBytes(vs ...float64) []byte {
	out := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// sameFloat reports whether a and b have equal bits or are both NaN: Go
// does not define which NaN payload an operation returns.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] of %d: kernel %#016x, Go loop %#016x",
				what, i, len(want), math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// specialBits is one of each float64 class the kernels must round as the
// Go loops do: signed zeros, subnormals, the extremes, infinities and NaN.
var specialBits = floatBytes(0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -2.2250738585072014e-308,
	math.MaxFloat64, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, 3.5e150)

func FuzzAdamUpdate(f *testing.F) {
	// A training-shaped step: gradients summed over a minibatch, small
	// weights and moments, Default settings at step 1.
	r := rng.New(80)
	var plausible []float64
	for i := 0; i < 4*maxFuzzLen; i++ {
		plausible = append(plausible, r.NormFloat64()*math.Pow(10, -float64(i%5)))
	}
	im, isq := (&adamState{}).step(3e-3)
	bits := math.Float64bits
	f.Add(uint8(maxFuzzLen), bits(1.0/32), bits(1e-5), bits(im), bits(isq), floatBytes(plausible...))
	f.Add(uint8(maxFuzzLen-1), bits(1.0/20), bits(0), bits(im), bits(isq), floatBytes(plausible...))
	f.Add(uint8(11), bits(1.0/32), bits(1e-5), bits(im), bits(isq), specialBits)
	f.Add(uint8(3), bits(math.Inf(1)), bits(math.NaN()), bits(0), bits(math.MaxFloat64), specialBits)
	for n := uint8(0); n < 3; n++ {
		f.Add(n, bits(1), bits(1), bits(1), bits(1), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, n uint8, scale, decay, im, isq uint64, data []byte) {
		ops := fuzzOperands(data, 4, int(n)%(maxFuzzLen+1))
		want := make([][]float64, len(ops))
		for k, op := range ops {
			want[k] = append([]float64(nil), op...)
		}
		s, d, a, q := math.Float64frombits(scale), math.Float64frombits(decay), math.Float64frombits(im), math.Float64frombits(isq)
		adamUpdate(ops[0], ops[1], ops[2], ops[3], s, d, a, q)
		adamUpdateGeneric(want[0], want[1], want[2], want[3], s, d, a, q)
		for k, what := range []string{"p", "g", "m", "v"} {
			checkSame(t, what, ops[k], want[k])
		}
	})
}

func FuzzAxpy(f *testing.F) {
	r := rng.New(81)
	var plausible []float64
	for i := 0; i < 5*maxFuzzLen; i++ {
		plausible = append(plausible, r.NormFloat64())
	}
	bits := math.Float64bits
	f.Add(uint8(64), bits(1), bits(0.5), bits(-2), bits(1e-3), floatBytes(plausible...))
	f.Add(uint8(maxFuzzLen), bits(0.1), bits(0.2), bits(0.3), bits(0.7), floatBytes(plausible...))
	f.Add(uint8(11), bits(1), bits(math.Copysign(0, -1)), bits(math.NaN()), bits(math.Inf(-1)), specialBits)
	f.Add(uint8(5), bits(math.MaxFloat64), bits(math.SmallestNonzeroFloat64), bits(-1), bits(0), specialBits)
	for n := uint8(0); n < 3; n++ {
		f.Add(n, bits(1), bits(2), bits(3), bits(4), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, n uint8, x0, x1, x2, x3 uint64, data []byte) {
		ops := fuzzOperands(data, 5, int(n)%(maxFuzzLen+1))
		o, r0, r1, r2, r3 := ops[0], ops[1], ops[2], ops[3], ops[4]
		a, b, c, d := math.Float64frombits(x0), math.Float64frombits(x1), math.Float64frombits(x2), math.Float64frombits(x3)

		got := append([]float64(nil), o...)
		want := append([]float64(nil), o...)
		axpy4(got, a, b, c, d, r0, r1, r2, r3)
		axpy4Generic(want, a, b, c, d, r0, r1, r2, r3)
		checkSame(t, "axpy4 o", got, want)

		got = append(got[:0], o...)
		want = append(want[:0], o...)
		axpy1(got, a, r0)
		axpy1Generic(want, a, r0)
		checkSame(t, "axpy1 o", got, want)
	})
}

// BenchmarkAdamStep times one Adam step over Fig 6's layer-0 weights, 2400
// inputs by 64 hidden units. The first step consumes the gradient, and
// later steps run on weight decay alone: every element costs the same
// divide and square root either way.
func BenchmarkAdamStep(b *testing.B) {
	const n = benchDim * 64
	r := rng.New(82)
	params, grads := make([]float64, n), make([]float64, n)
	for i := range params {
		params[i] = r.NormFloat64() * 0.03
		grads[i] = r.NormFloat64()
	}
	st := &adamState{m: make([]float64, n), v: make([]float64, n)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adamStep(params, grads, st, 3e-3, 1.0/32, 1e-5)
	}
}
