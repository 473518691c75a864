// Package changepoint implements offline change-point detection for power
// traces, reproducing the signal-analysis step of §VII-B (Fig 11): the paper
// uses MATLAB's findchangepts to show that application phases remain
// recoverable under every defense except Maya GS.
//
// The detector is top-down binary segmentation with a fixed change-point
// budget, as with findchangepts(MaxNumChanges), over a cost that detects
// mean shifts.
package changepoint

import "sort"

// prefix sums enable O(1) segment cost evaluation.
type prefixes struct {
	sum   []float64 // sum[i] = x[0]+..+x[i-1]
	sumSq []float64
}

func newPrefixes(x []float64) *prefixes {
	n := len(x)
	p := &prefixes{
		sum:   make([]float64, n+1),
		sumSq: make([]float64, n+1),
	}
	for i, v := range x {
		p.sum[i+1] = p.sum[i] + v
		p.sumSq[i+1] = p.sumSq[i] + v*v
	}
	return p
}

// segCost returns the cost of the segment x[a:b] (b exclusive, b > a): its
// sum of squared deviations from the segment mean, which penalizes level
// shifts.
func (p *prefixes) segCost(a, b int) float64 {
	n := float64(b - a)
	s := p.sum[b] - p.sum[a]
	ss := p.sumSq[b] - p.sumSq[a]
	mean := s / n
	sse := ss - n*mean*mean
	if sse < 0 {
		sse = 0 // guard round-off
	}
	return sse
}

// BinarySegmentation splits the signal top-down until either maxChanges
// change points are found or no split improves cost by more than minGain.
// It returns sorted change-point indices.
func BinarySegmentation(x []float64, maxChanges int, minGain float64, minSegment int) []int {
	n := len(x)
	if n == 0 || maxChanges <= 0 {
		return nil
	}
	if minSegment < 1 {
		minSegment = 1
	}
	p := newPrefixes(x)

	type split struct {
		a, b int // segment bounds
		at   int // best split position
		gain float64
	}
	bestSplit := func(a, b int) split {
		s := split{a: a, b: b, at: -1, gain: 0}
		if b-a < 2*minSegment {
			return s
		}
		whole := p.segCost(a, b)
		for t := a + minSegment; t <= b-minSegment; t++ {
			g := whole - (p.segCost(a, t) + p.segCost(t, b))
			if g > s.gain {
				s.gain, s.at = g, t
			}
		}
		return s
	}

	segments := []split{bestSplit(0, n)}
	var cps []int
	for len(cps) < maxChanges {
		// Pick the segment whose best split yields the largest gain.
		bi, bg := -1, minGain
		for i, s := range segments {
			if s.at >= 0 && s.gain > bg {
				bi, bg = i, s.gain
			}
		}
		if bi < 0 {
			break
		}
		s := segments[bi]
		cps = append(cps, s.at)
		segments[bi] = bestSplit(s.a, s.at)
		segments = append(segments, bestSplit(s.at, s.b))
	}
	sort.Ints(cps)
	return cps
}

// MatchScore compares detected change points against ground truth: it
// returns the fraction of true change points that have a detection within
// tol samples. Used by tests and the Fig 11 harness to quantify "phases
// recoverable" vs "phases erased".
func MatchScore(truth, detected []int, tol int) float64 {
	if len(truth) == 0 {
		return 1
	}
	hits := 0
	for _, tr := range truth {
		for _, d := range detected {
			if abs(d-tr) <= tol {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(truth))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
