package nn

// The kernels in kernels_amd64.s. Each computes exactly what its Generic
// loop in kernels.go computes. Like math/big's assembly, they read the
// other operands at the output's length without checking it: adamUpdate
// reads len(p) elements of g, m and v, and the gather kernels len(xs)
// indices and every row of m those indices name, so each caller slices
// its operands to fit first.

//go:noescape
func adamUpdate(p, g, m, v []float64, scale, decay, im, isq float64)

// gatherAxpySSE2 keeps 16 output columns in eight XMM registers across
// all of its terms; gatherAxpyAVX2 keeps 32 in eight YMM registers.
//
//go:noescape
func gatherAxpySSE2(o, xs []float64, idx []int32, m []float64)

//go:noescape
func gatherAxpyAVX2(o, xs []float64, idx []int32, m []float64)

// cpuid executes CPUID for leaf and subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, the state components the OS
// saves on a context switch. It faults unless CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether this CPU executes AVX2 and its OS saves the YMM
// registers: CPUID leaf 7 EBX bit 5 (AVX2), leaf 1 ECX bits 27 (OSXSAVE)
// and 28 (AVX), and XCR0 bits 1 and 2 (XMM and YMM state).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// gatherAxpy is the row-gather kernel the layer kernels call, chosen once
// here: AVX2 where hasAVX2 holds, SSE2 (amd64's baseline) otherwise.
var gatherAxpy = pickGatherAxpy()

func pickGatherAxpy() func(o, xs []float64, idx []int32, m []float64) {
	if hasAVX2 {
		return gatherAxpyAVX2
	}
	return gatherAxpySSE2
}
