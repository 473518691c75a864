package attack

import (
	"math"
	"strings"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/trace"
)

// cvDataset builds a cheap synthetic dataset with separable classes: each
// class sits at a different mean power level with small noise.
func cvDataset(traces, length int) *trace.Dataset {
	ds := &trace.Dataset{ClassNames: []string{"lo", "mid", "hi"}}
	r := rng.New(99)
	for label := 0; label < 3; label++ {
		mean := 20 + 15*float64(label)
		for i := 0; i < traces; i++ {
			s := make([]float64, length)
			for j := range s {
				s[j] = r.Normal(mean, 1)
			}
			ds.Add(label, 20, s)
		}
	}
	return ds
}

func cvSpec() Spec {
	s := DefaultSpec()
	s.AvgBlock = 1
	s.WindowLen = 40
	s.Hidden = []int{16}
	s.Train.Epochs = 8
	return s
}

func TestCrossValidateDeterministicAcrossWorkers(t *testing.T) {
	ds := cvDataset(6, 40)
	spec := cvSpec()
	var ref *CVResult
	for _, workers := range []int{1, 3, 5} {
		res, err := CrossValidate(ds, spec, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for f, a := range res.FoldAccuracy {
			if a != ref.FoldAccuracy[f] {
				t.Fatalf("workers=%d fold %d accuracy %g != %g", workers, f, a, ref.FoldAccuracy[f])
			}
		}
		if res.MeanAccuracy != ref.MeanAccuracy || res.StdAccuracy != ref.StdAccuracy {
			t.Fatalf("workers=%d summary differs", workers)
		}
	}
}

func TestCrossValidateLearnsSeparableClasses(t *testing.T) {
	ds := cvDataset(8, 40)
	res, err := CrossValidate(ds, cvSpec(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAccuracy) != 4 {
		t.Fatalf("folds=%d want 4", len(res.FoldAccuracy))
	}
	if res.Examples != 24 {
		t.Fatalf("examples=%d want 24", res.Examples)
	}
	if math.Abs(res.Chance-1.0/3) > 1e-12 {
		t.Fatalf("chance=%g", res.Chance)
	}
	// Widely separated means should be easy well above chance.
	if res.MeanAccuracy < 2*res.Chance {
		t.Fatalf("mean accuracy %.3f not above chance %.3f", res.MeanAccuracy, res.Chance)
	}
	for f, a := range res.FoldAccuracy {
		if a < 0 || a > 1 {
			t.Fatalf("fold %d accuracy %g out of range", f, a)
		}
	}
}

func TestCrossValidateRejectsBadFoldCounts(t *testing.T) {
	ds := cvDataset(2, 40)
	if _, err := CrossValidate(ds, cvSpec(), 1, 0); err == nil {
		t.Fatal("folds=1 should error")
	}
	if _, err := CrossValidate(ds, cvSpec(), 100, 0); err == nil {
		t.Fatal("more folds than examples should error")
	}
}

// TestCrossValidateRefusesEarlyStopping pins that cross-validation does
// not stop early: a fold's only held-out data is its test fold, and
// stopping on it would choose the epoch by the accuracy the fold reports.
func TestCrossValidateRefusesEarlyStopping(t *testing.T) {
	spec := cvSpec()
	spec.Train.Patience = 2
	_, err := CrossValidate(cvDataset(6, 40), spec, 4, 1)
	if err == nil || !strings.Contains(err.Error(), "patience") {
		t.Fatalf("CrossValidate with Patience 2: err %v, want a refusal naming patience", err)
	}
}

// benchCV measures k-fold cross-validation at a given worker count; the
// Serial/Parallel pair shows what the runner fan-out buys. Results are
// byte-identical at any worker count, so the pair differs only in time.
func benchCV(b *testing.B, workers int) {
	b.Helper()
	ds := cvDataset(8, 40)
	spec := cvSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CrossValidate(ds, spec, 4, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossValidateSerial(b *testing.B)   { benchCV(b, 1) }
func BenchmarkCrossValidateParallel(b *testing.B) { benchCV(b, 0) }
