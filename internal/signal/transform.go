package signal

import "fmt"

// AverageBlocks replaces each group of k consecutive samples with its mean,
// dropping the trailing partial block. The paper's attacker averages 5
// consecutive RAPL measurements "to remove the effects of noise" (§VI-A).
func AverageBlocks(x []float64, k int) []float64 {
	if k <= 0 {
		panic("signal: AverageBlocks with non-positive k")
	}
	n := len(x) / k
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < k; j++ {
			s += x[i*k+j]
		}
		out[i] = s / float64(k)
	}
	return out
}

// Quantizer maps continuous power values into a fixed number of discrete
// levels over [lo, hi]; the attacker quantizes power into 10 levels for MLP
// training (§VI-A).
type Quantizer struct {
	Lo, Hi float64
	Levels int
}

// NewQuantizer returns a quantizer over [lo, hi] with the given level count.
func NewQuantizer(lo, hi float64, levels int) Quantizer {
	if levels < 2 {
		panic("signal: quantizer needs at least 2 levels")
	}
	if hi <= lo {
		panic(fmt.Sprintf("signal: quantizer range [%g,%g] empty", lo, hi))
	}
	return Quantizer{Lo: lo, Hi: hi, Levels: levels}
}

// Level returns the level index in [0, Levels) for value v, clamping values
// outside the range.
func (q Quantizer) Level(v float64) int {
	if v <= q.Lo {
		return 0
	}
	if v >= q.Hi {
		return q.Levels - 1
	}
	l := int(float64(q.Levels) * (v - q.Lo) / (q.Hi - q.Lo))
	if l >= q.Levels {
		l = q.Levels - 1
	}
	return l
}

// Apply quantizes every sample of x to its level index.
func (q Quantizer) Apply(x []float64) []int {
	out := make([]int, len(x))
	for i, v := range x {
		out[i] = q.Level(v)
	}
	return out
}

// OneHot expands quantized levels into a flat one-hot feature vector of
// length len(levels)*numLevels, the encoding the paper feeds its MLP.
func OneHot(levels []int, numLevels int) []float64 {
	out := make([]float64, len(levels)*numLevels)
	for i, l := range levels {
		if l < 0 || l >= numLevels {
			panic(fmt.Sprintf("signal: one-hot level %d out of [0,%d)", l, numLevels))
		}
		out[i*numLevels+l] = 1
	}
	return out
}

// Windows slices x into non-overlapping windows of the given length,
// dropping a trailing partial window.
func Windows(x []float64, length int) [][]float64 {
	if length <= 0 {
		panic("signal: Windows with non-positive length")
	}
	n := len(x) / length
	out := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		w := make([]float64, length)
		copy(w, x[i*length:(i+1)*length])
		out = append(out, w)
	}
	return out
}

// AverageTraces returns the element-wise mean of several traces, truncated
// to the shortest. The paper averages 1,000 traces per application for the
// summary-statistics analysis (Fig 7, 10).
func AverageTraces(traces [][]float64) []float64 {
	if len(traces) == 0 {
		return nil
	}
	n := len(traces[0])
	for _, tr := range traces {
		if len(tr) < n {
			n = len(tr)
		}
	}
	out := make([]float64, n)
	for _, tr := range traces {
		for i := 0; i < n; i++ {
			out[i] += tr[i]
		}
	}
	inv := 1 / float64(len(traces))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// MovingAverage returns the centered moving average of x with the given
// window (window is clipped at the edges).
func MovingAverage(x []float64, window int) []float64 {
	if window <= 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out
	}
	half := window / 2
	out := make([]float64, len(x))
	for i := range x {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(x) {
			hi = len(x)
		}
		s := 0.0
		for j := lo; j < hi; j++ {
			s += x[j]
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}
