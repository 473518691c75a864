package signal

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/maya-defense/maya/internal/rng"
)

func TestAverageBlocks(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	got := AverageBlocks(x, 3)
	want := []float64{2, 5} // trailing 7 dropped
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAverageBlocksPreservesMeanProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 60
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Normal(10, 2)
		}
		// With k dividing n exactly, total mean is preserved.
		return math.Abs(Mean(AverageBlocks(x, 5))-Mean(x)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizerLevels(t *testing.T) {
	q := NewQuantizer(0, 10, 10)
	cases := []struct {
		v    float64
		want int
	}{
		{-5, 0}, {0, 0}, {0.5, 0}, {1.0, 1}, {5.0, 5}, {9.99, 9}, {10, 9}, {25, 9},
	}
	for _, c := range cases {
		if got := q.Level(c.v); got != c.want {
			t.Fatalf("Level(%g)=%d want %d", c.v, got, c.want)
		}
	}
}

func TestQuantizerApplyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		q := NewQuantizer(5, 25, 10)
		x := make([]float64, 100)
		for i := range x {
			x[i] = r.Normal(15, 10)
		}
		for _, l := range q.Apply(x) {
			if l < 0 || l >= 10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOneHot(t *testing.T) {
	got := OneHot([]int{0, 2, 1}, 3)
	want := []float64{1, 0, 0, 0, 0, 1, 0, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("len=%d", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Exactly one hot per position.
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != 3 {
		t.Fatalf("one-hot sum=%g", sum)
	}
}

func TestWindows(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	w := Windows(x, 2)
	if len(w) != 2 || w[0][0] != 1 || w[1][1] != 4 {
		t.Fatalf("windows=%v", w)
	}
	// Windows are copies, not aliases.
	w[0][0] = 99
	if x[0] != 1 {
		t.Fatal("window aliases input")
	}
}

func TestAverageTraces(t *testing.T) {
	got := AverageTraces([][]float64{{1, 2, 3}, {3, 4, 100}, {2, 3, 2}})
	if got[0] != 2 || got[1] != 3 || got[2] != 35 {
		t.Fatalf("avg=%v", got)
	}
	// Truncates to shortest.
	got = AverageTraces([][]float64{{1, 2, 3}, {3, 4}})
	if len(got) != 2 {
		t.Fatalf("len=%d want 2", len(got))
	}
}

func TestMovingAverageConstant(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	got := MovingAverage(x, 3)
	for _, v := range got {
		if v != 5 {
			t.Fatalf("moving average of constant changed: %v", got)
		}
	}
}
