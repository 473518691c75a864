//go:build !amd64

package nn

// gatherKernels lists the gatherAxpy implementations this host runs: off
// amd64, the Go loop alone.
func gatherKernels() []gatherKernel {
	return []gatherKernel{{"go", gatherAxpyGeneric}}
}
