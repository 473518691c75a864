package attack

import (
	"context"
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/nn"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/runner"
	"github.com/maya-defense/maya/internal/trace"
)

// CVResult reports a k-fold cross-validation of an attack pipeline.
type CVResult struct {
	// FoldAccuracy holds the held-out accuracy of each fold, in fold order.
	FoldAccuracy []float64
	// MeanAccuracy and StdAccuracy summarize the folds.
	MeanAccuracy float64
	StdAccuracy  float64
	// Chance is 1/numClasses, the failure floor.
	Chance float64
	// Examples counts the feature vectors derived from the dataset.
	Examples int
}

// CrossValidate runs stratification-free k-fold cross-validation of the
// attack: the dataset is featurized once, examples are dealt into k folds by
// a permutation drawn from rng.NewNamed(spec.Seed, "attack/cv"), and each
// fold trains on the other k-1 folds and reports accuracy on its own.
//
// A fold trains without a validation set: its test fold is the only
// held-out data, and early stopping on it would choose the epoch by the
// accuracy the fold reports. CrossValidate therefore refuses a positive
// spec.Train.Patience.
//
// Folds run in parallel across workers (<= 0: GOMAXPROCS). Every fold's
// training stream is a pure function of (spec.Seed, fold), and the fold
// assignment is fixed before any fold runs, so the result is identical for
// every worker count.
func CrossValidate(ds *trace.Dataset, spec Spec, folds, workers int) (*CVResult, error) {
	if folds < 2 {
		return nil, fmt.Errorf("attack: need at least 2 folds, got %d", folds)
	}
	if spec.Train.Patience > 0 {
		return nil, fmt.Errorf("attack: cross-validation has no validation set for early stopping (patience %d)", spec.Train.Patience)
	}
	examples, _, err := Featurize(ds, spec)
	if err != nil {
		return nil, err
	}
	if len(examples) < folds {
		return nil, fmt.Errorf("attack: only %d examples for %d folds", len(examples), folds)
	}

	// Deal the shuffled examples round-robin into folds. The permutation is
	// drawn once, up front, from a dedicated named stream.
	perm := rng.NewNamed(spec.Seed, "attack/cv").Perm(len(examples))
	foldOf := make([]int, len(examples))
	for pos, idx := range perm {
		foldOf[idx] = pos % folds
	}

	sizes := append([]int{len(examples[0].X)}, spec.Hidden...)
	sizes = append(sizes, ds.NumClasses())
	cfg := spec.Train
	if cfg.Epochs == 0 {
		cfg = nn.DefaultTrainConfig()
	}

	// Pre-partition every fold's train/test slices before any job runs, in
	// example-index order (the order the per-fold loop used to build them),
	// so the fan-out closures do no shared-state work — they only train.
	trainSets := make([][]nn.Example, folds)
	testSets := make([][]nn.Example, folds)
	for f := 0; f < folds; f++ {
		trainSets[f] = make([]nn.Example, 0, len(examples)-len(examples)/folds)
		testSets[f] = make([]nn.Example, 0, len(examples)/folds+1)
	}
	for i, ex := range examples {
		f := foldOf[i]
		testSets[f] = append(testSets[f], ex)
		for other := 0; other < folds; other++ {
			if other != f {
				trainSets[other] = append(trainSets[other], ex)
			}
		}
	}

	accs, err := runner.MapN(context.Background(), runner.Options{Workers: workers}, folds,
		func(_ context.Context, fold int, _ *rng.Stream) (float64, error) {
			// Per-fold stream: a pure function of (Seed, fold), domain-
			// separated from the restart streams used by Run.
			rr := rng.NewNamed(spec.Seed+uint64(fold)*104_729, "attack/cv/fold")
			m := nn.NewMLP(rr, sizes...)
			m.Train(rr, trainSets[fold], nil, cfg)
			return m.Accuracy(testSets[fold]), nil
		})
	if err != nil {
		return nil, err
	}

	mean := 0.0
	for _, a := range accs {
		mean += a
	}
	mean /= float64(folds)
	varSum := 0.0
	for _, a := range accs {
		varSum += (a - mean) * (a - mean)
	}
	return &CVResult{
		FoldAccuracy: accs,
		MeanAccuracy: mean,
		StdAccuracy:  math.Sqrt(varSum / float64(folds)),
		Chance:       1 / float64(ds.NumClasses()),
		Examples:     len(examples),
	}, nil
}
