package changepoint

import (
	"testing"
	"testing/quick"

	"github.com/maya-defense/maya/internal/rng"
)

// step builds a piecewise-constant signal with noise.
func step(r *rng.Stream, levels []float64, segLen int, noise float64) ([]float64, []int) {
	var x []float64
	var cps []int
	for i, l := range levels {
		if i > 0 {
			cps = append(cps, len(x))
		}
		for j := 0; j < segLen; j++ {
			x = append(x, r.Normal(l, noise))
		}
	}
	return x, cps
}

func TestBinarySegmentationFindsShifts(t *testing.T) {
	r := rng.New(4)
	x, truth := step(r, []float64{3, 12, 6}, 150, 0.4)
	got := BinarySegmentation(x, 5, 10, 10)
	if MatchScore(truth, got, 8) < 1 {
		t.Fatalf("binseg missed: truth=%v got=%v", truth, got)
	}
}

func TestBinarySegmentationBudget(t *testing.T) {
	r := rng.New(5)
	x, _ := step(r, []float64{1, 5, 9, 13, 17, 21}, 60, 0.2)
	got := BinarySegmentation(x, 2, 1, 5)
	if len(got) > 2 {
		t.Fatalf("budget exceeded: %v", got)
	}
}

func TestChangePointsSortedAndInRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x, _ := step(r, []float64{4, 9, 2}, 50, 1.0)
		last := 0
		for _, cp := range BinarySegmentation(x, 4, 5, 5) {
			if cp <= last || cp >= len(x) {
				return false
			}
			last = cp
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchScore(t *testing.T) {
	if MatchScore(nil, []int{1, 2}, 3) != 1 {
		t.Fatal("empty truth should score 1")
	}
	if got := MatchScore([]int{100, 200}, []int{102}, 5); got != 0.5 {
		t.Fatalf("score=%g want 0.5", got)
	}
	if got := MatchScore([]int{100}, []int{300}, 5); got != 0 {
		t.Fatalf("score=%g want 0", got)
	}
}
