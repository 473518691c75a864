//go:build !amd64

package nn

// Off amd64 the training kernels are the Go loops in kernels.go.

func adamUpdate(p, g, m, v []float64, scale, decay, im, isq float64) {
	adamUpdateGeneric(p, g, m, v, scale, decay, im, isq)
}

// gatherAxpy is the row-gather kernel the layer kernels call.
var gatherAxpy = gatherAxpyGeneric
