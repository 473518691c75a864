package main

import (
	"fmt"

	"github.com/maya-defense/maya/internal/attack"
	"github.com/maya-defense/maya/internal/nn"
	"github.com/maya-defense/maya/internal/rng"
	"github.com/maya-defense/maya/internal/trace"
)

// This file replays attack.Run one layer call at a time: attack.Featurize,
// nn.Split, then NewMLP and Train per restart, Accuracy and Confusion. It
// mirrors attack.Run's internals (its split fractions, restart count and
// seed derivation), and the attack workload checks its confusion matrix
// against attack.Run's, so a change to attack.Run shows up as a failed
// check.

// attackRestarts is the number of training restarts attack.Run keeps the
// best of.
const attackRestarts = 2

// attackTimes is the time one replayed pipeline spent in each layer, in ns.
type attackTimes struct {
	featurize, split, train, eval int64
}

// replayAttack runs spec's pipeline on ds stage by stage, recording each
// call on clk, and returns the confusion matrix on the test split.
func replayAttack(ds *trace.Dataset, spec attack.Spec, feature string, clk layerClock) (*nn.ConfusionMatrix, attackTimes, error) {
	var at attackTimes
	t0 := clk.now()
	examples, inputDim, err := attack.Featurize(ds, spec)
	at.featurize = clk.span("attack.featurize."+feature, 0, t0)
	if err != nil {
		return nil, at, err
	}
	if len(examples) < 10 {
		return nil, at, fmt.Errorf("only %d examples", len(examples))
	}

	t0 = clk.now()
	train, val, test := nn.Split(rng.NewNamed(spec.Seed, "attack"), examples, 0.6, 0.2)
	at.split = clk.span("nn.split", 0, t0)

	sizes := append([]int{inputDim}, spec.Hidden...)
	sizes = append(sizes, ds.NumClasses())
	cfg := spec.Train
	if cfg.Epochs == 0 {
		cfg = nn.DefaultTrainConfig()
	}
	var best *nn.MLP
	bestVal := -1.0
	for restart := 0; restart < attackRestarts; restart++ {
		t0 = clk.now()
		rr := rng.NewNamed(spec.Seed+uint64(restart)*7919, "attack/restart")
		m := nn.NewMLP(rr, sizes...)
		m.Train(rr, train, val, cfg)
		at.train += clk.span("nn.train", uint64(restart), t0)
		t0 = clk.now()
		acc := m.Accuracy(val)
		at.eval += clk.span("nn.eval", uint64(restart), t0)
		if acc > bestVal {
			best, bestVal = m, acc
		}
	}
	t0 = clk.now()
	cm := nn.Confusion(best, test, ds.ClassNames)
	at.eval += clk.span("nn.eval", attackRestarts, t0)
	return cm, at, nil
}
