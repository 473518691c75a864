package nn

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// gatherKernels lists the gatherAxpy implementations this CPU runs: the
// SSE2 kernel always, the AVX2 kernel where hasAVX2 holds.
func gatherKernels() []gatherKernel {
	ks := []gatherKernel{{"sse2", gatherAxpySSE2}}
	if hasAVX2 {
		ks = append(ks, gatherKernel{"avx2", gatherAxpyAVX2})
	}
	return ks
}

// TestAVX2DetectionMatchesCPUInfo checks the CPUID/XGETBV decision against
// Linux's own: the kernel lists avx2 among a CPU's flags only when the CPU
// has it and the kernel saves YMM state. A wrong check would either lose
// the AVX2 kernel silently or fault on a host whose OS does not save YMM.
func TestAVX2DetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the CPU's flags: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx2"); hasAVX2 != want {
			t.Fatalf("detectAVX2 = %v, but /proc/cpuinfo lists avx2: %v", hasAVX2, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
