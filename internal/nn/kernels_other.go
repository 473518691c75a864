//go:build !amd64

package nn

// Off amd64 the training kernels are the Go loops in kernels.go.

func adamUpdate(p, g, m, v []float64, scale, decay, im, isq float64) {
	adamUpdateGeneric(p, g, m, v, scale, decay, im, isq)
}

func axpy4(o []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float64) {
	axpy4Generic(o, x0, x1, x2, x3, r0, r1, r2, r3)
}

func axpy1(o []float64, x float64, r []float64) {
	axpy1Generic(o, x, r)
}
