package signal

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x (0 for fewer than 2 samples).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// Quantile returns the q-quantile (0 <= q <= 1) of x using linear
// interpolation between order statistics (the common "type 7" estimator).
func Quantile(x []float64, q float64) float64 {
	n := len(x)
	if n == 0 {
		return math.NaN()
	}
	s := make([]float64, n)
	copy(s, x)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// BoxStats summarizes a sample the way the paper's box plots (Fig 7, 13) do:
// quartiles, median, whiskers at min/max of non-outliers, and statistical
// outliers beyond 1.5 IQR.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	Outliers                 []float64
}

// Box computes BoxStats for x.
func Box(x []float64) BoxStats {
	b := BoxStats{}
	if len(x) == 0 {
		b.Min, b.Q1, b.Median, b.Q3, b.Max = math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return b
	}
	b.Q1 = Quantile(x, 0.25)
	b.Median = Quantile(x, 0.5)
	b.Q3 = Quantile(x, 0.75)
	b.Mean = Mean(x)
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.Min, b.Max = math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if v < loFence || v > hiFence {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
	}
	if math.IsInf(b.Min, 1) { // everything was an outlier (degenerate)
		b.Min, b.Max = b.Median, b.Median
	}
	return b
}

// IQR returns the interquartile range of x.
func (b BoxStats) IQR() float64 { return b.Q3 - b.Q1 }

// Pearson returns the Pearson correlation coefficient of x and y, which must
// have equal length. It returns 0 when either input is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("signal: Pearson length mismatch")
	}
	n := len(x)
	if n == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CrossCorrelationPeak returns the maximum absolute normalized
// cross-correlation of x and y over lags in [-maxLag, maxLag]. It is used
// to check that obfuscated traces carry no alignment-shifted copy of the
// original activity.
func CrossCorrelationPeak(x, y []float64, maxLag int) float64 {
	best := 0.0
	for lag := -maxLag; lag <= maxLag; lag++ {
		var xs, ys []float64
		if lag >= 0 {
			if lag >= len(x) || len(y) <= lag {
				continue
			}
			n := min(len(x)-lag, len(y))
			xs, ys = x[lag:lag+n], y[:n]
		} else {
			l := -lag
			if l >= len(y) {
				continue
			}
			n := min(len(y)-l, len(x))
			xs, ys = x[:n], y[l:l+n]
		}
		if len(xs) < 3 {
			continue
		}
		if c := math.Abs(Pearson(xs, ys)); c > best {
			best = c
		}
	}
	return best
}

// MeanAbsDeviation returns mean(|x-target|) — the tracking-error metric used
// to quantify how well the controller holds power at the mask (Fig 13).
func MeanAbsDeviation(x, target []float64) float64 {
	n := min(len(x), len(target))
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Abs(x[i] - target[i])
	}
	return s / float64(n)
}

// RMSE returns the root-mean-square error between x and target.
func RMSE(x, target []float64) float64 {
	n := min(len(x), len(target))
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		d := x[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
