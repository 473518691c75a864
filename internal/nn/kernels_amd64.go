package nn

// The SSE2 kernels in kernels_amd64.s. Each computes exactly what its
// Generic loop in kernels.go computes. Like math/big's assembly, they read
// len(p) or len(o) elements of every other slice without checking it, so
// each caller reslices its operands to that length first.

//go:noescape
func adamUpdate(p, g, m, v []float64, scale, decay, im, isq float64)

//go:noescape
func axpy4(o []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float64)

//go:noescape
func axpy1(o []float64, x float64, r []float64)
