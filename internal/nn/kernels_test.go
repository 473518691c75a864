package nn

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
)

// The fuzzers pin each training kernel to its Go loop in kernels.go over
// arbitrary float64 bit patterns. On amd64 they compare the assembly
// kernels with the Go loops: the SSE2 ones always, and the AVX2 gather
// kernel where the CPU runs it. Elsewhere the kernels are the Go loops and
// the comparison is trivially equal.

// maxFuzzLen bounds the Adam kernel's operand length: 67 covers many
// packed iterations and both tail parities.
const maxFuzzLen = 67

// gatherKernel is one gatherAxpy implementation.
type gatherKernel struct {
	name string
	fn   func(o, xs []float64, idx []int32, m []float64)
}

// eachGatherKernel runs f as one subtest per implementation gatherKernels
// lists, with the package's kernel selection swapped to it, so a host
// that picks AVX2 also trains through the SSE2 kernel.
func eachGatherKernel(t *testing.T, f func(t *testing.T)) {
	for _, k := range gatherKernels() {
		t.Run(k.name, func(t *testing.T) {
			picked := gatherAxpy
			defer func() { gatherAxpy = picked }()
			gatherAxpy = k.fn
			f(t)
		})
	}
}

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

// The gather fuzzer's shapes: up to 80 columns reach every block width of
// both gather kernels, each remainder below it and the scalar tail; up to
// 40 terms; indices into a matrix of gatherRows rows, so that they repeat
// and come in any order.
const maxFuzzCols, maxFuzzTerms, gatherRows = 80, 40, 7

func FuzzGatherAxpy(f *testing.F) {
	r := rng.New(81)
	var plausible []float64
	for i := 0; i < (gatherRows+2)*maxFuzzCols; i++ {
		plausible = append(plausible, r.NormFloat64())
	}
	everyRow := []byte{0, 1, 2, 3, 4, 5, 6} // in turn, then again
	f.Add(uint8(64), uint8(maxFuzzTerms), everyRow, floatBytes(plausible...))
	f.Add(uint8(maxFuzzCols), uint8(maxFuzzTerms), []byte{6, 2, 2, 0, 5, 1, 6, 3}, floatBytes(plausible...))
	f.Add(uint8(maxFuzzCols-1), uint8(3), []byte{5, 5, 1}, floatBytes(plausible...))
	f.Add(uint8(11), uint8(9), []byte{3, 0, 4, 1, 6}, specialBits)
	f.Add(uint8(37), uint8(1), []byte{2}, specialBits)
	f.Add(uint8(64), uint8(0), []byte(nil), floatBytes(plausible...))
	for n := uint8(0); n < 3; n++ {
		f.Add(n, uint8(2), []byte(nil), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, cols, terms uint8, rows, data []byte) {
		n, k := int(cols)%(maxFuzzCols+1), int(terms)%(maxFuzzTerms+1)
		vals := fuzzOperands(data, 1, n+k+gatherRows*n)[0]
		o, xs, m := vals[:n], vals[n:n+k], vals[n+k:]
		idx := make([]int32, k)
		for i := range idx {
			if len(rows) > 0 {
				idx[i] = int32(rows[i%len(rows)] % gatherRows)
			}
		}
		want := append([]float64(nil), o...)
		gatherAxpyGeneric(want, xs, idx, m)
		for _, kern := range gatherKernels() {
			got := append([]float64(nil), o...)
			kern.fn(got, xs, idx, m)
			checkSame(t, kern.name+" o", got, want)
		}
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

// BenchmarkGatherAxpy times each gatherAxpy implementation at two shapes
// of Fig 6's attack: a forward row of layer 0, 240 weight rows (one per
// one-hot group) added into 64 hidden units, and a typical gradSparse
// feature, three of a 32-row minibatch's delta rows added into one
// 64-wide gradient row. On amd64 the Go loop runs as well, for scale.
func BenchmarkGatherAxpy(b *testing.B) {
	const cols, batchRows = 64, 32
	r := rng.New(83)
	w := make([]float64, benchDim*cols)
	for i := range w {
		w[i] = r.NormFloat64() * 0.03
	}
	fwdIdx := make([]int32, benchDim/oneHotLevels)
	fwdX := make([]float64, len(fwdIdx))
	for g := range fwdIdx {
		fwdIdx[g] = int32(g*oneHotLevels + r.Intn(oneHotLevels))
		fwdX[g] = 1
	}
	d := make([]float64, batchRows*cols)
	for i := range d {
		d[i] = r.NormFloat64() * 0.1
	}
	gradIdx, gradX := []int32{4, 17, 29}, []float64{1, 1, 1}
	kernels := gatherKernels()
	if runtime.GOARCH == "amd64" {
		kernels = append(kernels, gatherKernel{"go", gatherAxpyGeneric})
	}
	o := make([]float64, cols)
	for _, k := range kernels {
		for _, s := range []struct {
			name string
			xs   []float64
			idx  []int32
			m    []float64
		}{
			{"240x64", fwdX, fwdIdx, w},
			{"3x64", gradX, gradIdx, d},
		} {
			b.Run(k.name+"/"+s.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(o, s.xs, s.idx, s.m)
				}
			})
		}
	}
}
