package nn

import (
	"math"
	"slices"
	"testing"

	"github.com/maya-defense/maya/internal/rng"
)

// This file keeps the pre-batching per-example training path alive as a
// test-only reference: the batched kernels replaced it in production, and
// these tests pin the replacement to be bit-for-bit identical on a fixed
// seed, not merely close.

// scalarBackward is the historical per-example gradient accumulation.
func scalarBackward(m *MLP, ex Example, acts, deltas [][]float64, gw []*dense, gb [][]float64) {
	L := len(m.weights)
	out := acts[L]
	dOut := deltas[L]
	for j := range dOut {
		p := math.Exp(out[j])
		if j == ex.Y {
			p -= 1
		}
		dOut[j] = p
	}
	for l := L - 1; l >= 0; l-- {
		w := m.weights[l]
		in := acts[l]
		d := deltas[l+1]
		g := gw[l]
		for i := 0; i < w.rows; i++ {
			xi := in[i]
			if xi == 0 {
				continue
			}
			row := g.w[i*w.cols : (i+1)*w.cols]
			for j := range row {
				row[j] += xi * d[j]
			}
		}
		bg := gb[l]
		for j := range bg {
			bg[j] += d[j]
		}
		if l == 0 {
			break
		}
		dPrev := deltas[l]
		for i := 0; i < w.rows; i++ {
			if in[i] <= 0 {
				dPrev[i] = 0
				continue
			}
			row := w.w[i*w.cols : (i+1)*w.cols]
			s := 0.0
			for j, wv := range row {
				s += wv * d[j]
			}
			dPrev[i] = s
		}
	}
}

// scalarAccuracy is the historical per-example evaluation loop.
func scalarAccuracy(m *MLP, examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	acts := m.newActs()
	for _, ex := range examples {
		m.forward(ex.X, acts)
		logp := acts[len(acts)-1]
		best := 0
		for i, v := range logp {
			if v > logp[best] {
				best = i
			}
		}
		if best == ex.Y {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// scalarAdamStep is adamStep over the Go reference loop, so that a
// wrong Adam kernel cannot pass for the reference it is compared against.
func scalarAdamStep(params, grads []float64, st *adamState, lr, scale, decay float64) {
	im, isq := st.step(lr)
	adamUpdateGeneric(params, grads, st.m, st.v, scale, decay, im, isq)
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// scalarTrain is the historical per-example training loop, kept verbatim
// (modulo the extracted backward/accuracy/Adam helpers above) as the
// reference for the batched Train. It scores val after every epoch and
// returns those accuracies in epoch order.
func scalarTrain(m *MLP, r *rng.Stream, train, val []Example, cfg TrainConfig) []float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 40
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	nLayers := len(m.weights)
	gw := make([]*dense, nLayers)
	gb := make([][]float64, nLayers)
	aw := make([]*adamState, nLayers)
	ab := make([]*adamState, nLayers)
	for l := range m.weights {
		gw[l] = newDense(m.weights[l].rows, m.weights[l].cols)
		gb[l] = make([]float64, len(m.biases[l]))
		aw[l] = &adamState{m: make([]float64, len(m.weights[l].w)), v: make([]float64, len(m.weights[l].w))}
		ab[l] = &adamState{m: make([]float64, len(m.biases[l])), v: make([]float64, len(m.biases[l]))}
	}
	acts := m.newActs()
	deltas := make([][]float64, len(m.sizes))
	for i, s := range m.sizes {
		deltas[i] = make([]float64, s)
	}
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	var valAccs []float64
	bestVal := math.Inf(-1)
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for l := range gw {
				zero(gw[l].w)
				zero(gb[l])
			}
			for _, idx := range order[start:end] {
				ex := train[idx]
				m.forward(ex.X, acts)
				logp := acts[len(acts)-1]
				totalLoss += -logp[ex.Y]
				scalarBackward(m, ex, acts, deltas, gw, gb)
			}
			scale := 1 / float64(end-start)
			for l := range gw {
				scalarAdamStep(m.weights[l].w, gw[l].w, aw[l], cfg.LR, scale, cfg.WeightDecay)
				scalarAdamStep(m.biases[l], gb[l], ab[l], cfg.LR, scale, 0)
			}
		}
		valAcc := scalarAccuracy(m, val)
		valAccs = append(valAccs, valAcc)
		_ = totalLoss
		if valAcc > bestVal {
			bestVal = valAcc
			sinceBest = 0
		} else {
			sinceBest++
			if cfg.Patience > 0 && sinceBest >= cfg.Patience {
				break
			}
		}
	}
	return valAccs
}

// logValAcc returns cfg with a Log that appends each epoch's validation
// accuracy to *accs, the sequence scalarTrain returns.
func logValAcc(cfg TrainConfig, accs *[]float64) TrainConfig {
	cfg.Log = func(_ int, _, valAcc float64) { *accs = append(*accs, valAcc) }
	return cfg
}

// trainSets builds a dataset with both dense and exactly-zero features (the
// zero-skip path must agree between scalar and batched kernels), sized so
// the final minibatch is partial.
func trainSets(seed uint64, n, dim, classes int) (train, val []Example) {
	r := rng.New(seed)
	all := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for j := range x {
			switch {
			case r.Float64() < 0.4:
				x[j] = 0 // exercise the sparsity skip
			default:
				x[j] = r.Normal(float64(i%classes), 1)
			}
		}
		all = append(all, Example{X: x, Y: i % classes})
	}
	cut := n * 3 / 4
	return all[:cut], all[cut:]
}

func TestBatchedTrainMatchesScalarBitForBit(t *testing.T) {
	eachGatherKernel(t, batchedTrainMatchesScalar)
}

func batchedTrainMatchesScalar(t *testing.T) {
	const seed = 42
	train, val := trainSets(7, 70, 12, 3) // 52 train rows: one full batch of 32, one partial of 20
	cfg := TrainConfig{Epochs: 6, BatchSize: 32, LR: 3e-3, WeightDecay: 1e-5}

	a := NewMLP(rng.New(seed), 12, 16, 8, 3)
	b := NewMLP(rng.New(seed), 12, 16, 8, 3)
	var valA []float64
	a.Train(rng.New(seed+1), train, val, logValAcc(cfg, &valA))
	valB := scalarTrain(b, rng.New(seed+1), train, val, cfg)

	if len(valB) != cfg.Epochs || !slices.Equal(valA, valB) {
		t.Fatalf("per-epoch validation accuracy differs: batched %v scalar %v", valA, valB)
	}
	for l := range a.weights {
		for i, w := range a.weights[l].w {
			if w != b.weights[l].w[i] {
				t.Fatalf("layer %d weight %d differs: batched %x scalar %x",
					l, i, math.Float64bits(w), math.Float64bits(b.weights[l].w[i]))
			}
		}
		for j, bv := range a.biases[l] {
			if bv != b.biases[l][j] {
				t.Fatalf("layer %d bias %d differs: batched %x scalar %x",
					l, j, math.Float64bits(bv), math.Float64bits(b.biases[l][j]))
			}
		}
	}
}

// TestEarlyStoppingMatchesScalar pins that Train still scores its
// validation set when only Patience reads the score: without cfg.Log it
// must stop at the reference's epoch, or the weights differ.
func TestEarlyStoppingMatchesScalar(t *testing.T) {
	eachGatherKernel(t, earlyStoppingMatchesScalar)
}

func earlyStoppingMatchesScalar(t *testing.T) {
	train, val := trainSets(7, 70, 12, 3)
	cfg := TrainConfig{Epochs: 30, BatchSize: 32, LR: 3e-3, WeightDecay: 1e-5, Patience: 2}
	a := NewMLP(rng.New(42), 12, 16, 8, 3)
	b := NewMLP(rng.New(42), 12, 16, 8, 3)
	a.Train(rng.New(43), train, val, cfg)
	if accs := scalarTrain(b, rng.New(43), train, val, cfg); len(accs) >= cfg.Epochs {
		t.Fatalf("the reference trained all %d epochs; the case does not stop early", len(accs))
	}
	for l := range a.weights {
		for i, w := range a.weights[l].w {
			if math.Float64bits(w) != math.Float64bits(b.weights[l].w[i]) {
				t.Fatalf("layer %d weight %d differs: batched %x scalar %x",
					l, i, math.Float64bits(w), math.Float64bits(b.weights[l].w[i]))
			}
		}
	}
}

// TestPatienceWithoutValidationTrainsAllEpochs pins that early stopping
// needs a validation set: with none, Train runs every epoch, exactly as
// with early stopping off, instead of scoring a constant 0 and stopping
// after Patience+1 epochs.
func TestPatienceWithoutValidationTrainsAllEpochs(t *testing.T) {
	train, _ := trainSets(7, 70, 12, 3)
	cfg := TrainConfig{Epochs: 6, BatchSize: 32, LR: 3e-3, WeightDecay: 1e-5}
	a := NewMLP(rng.New(42), 12, 16, 8, 3)
	b := NewMLP(rng.New(42), 12, 16, 8, 3)
	a.Train(rng.New(43), train, nil, cfg)
	cfg.Patience = 2
	b.Train(rng.New(43), train, nil, cfg)
	for l := range a.weights {
		for i, w := range a.weights[l].w {
			if math.Float64bits(w) != math.Float64bits(b.weights[l].w[i]) {
				t.Fatalf("layer %d weight %d: Patience 0 %x, Patience 2 without validation %x",
					l, i, math.Float64bits(w), math.Float64bits(b.weights[l].w[i]))
			}
		}
	}
}

func TestBatchedTrainMatchesScalarTinyBatches(t *testing.T) {
	// Batch size 1 degenerates the batched kernels to the scalar shape;
	// batch size larger than the dataset exercises the clamped buffer.
	train, val := trainSets(11, 13, 6, 2)
	for _, bs := range []int{1, 5, 64} {
		cfg := TrainConfig{Epochs: 3, BatchSize: bs, LR: 1e-2}
		a := NewMLP(rng.New(5), 6, 8, 2)
		b := NewMLP(rng.New(5), 6, 8, 2)
		a.Train(rng.New(6), train, val, cfg)
		scalarTrain(b, rng.New(6), train, val, cfg)
		for l := range a.weights {
			for i, w := range a.weights[l].w {
				if w != b.weights[l].w[i] {
					t.Fatalf("batch=%d: layer %d weight %d differs", bs, l, i)
				}
			}
		}
	}
}

func TestBatchedEvalMatchesScalar(t *testing.T) {
	eachGatherKernel(t, batchedEvalMatchesScalar)
}

func batchedEvalMatchesScalar(t *testing.T) {
	// Accuracy and Confusion run on the batched forward; their per-example
	// decisions must match the scalar forward exactly, including across the
	// evalBatchSize boundary.
	r := rng.New(31)
	m := NewMLP(r, 9, 12, 4)
	var examples []Example
	for i := 0; i < evalBatchSize*2+17; i++ {
		x := make([]float64, 9)
		for j := range x {
			if r.Float64() < 0.3 {
				x[j] = 0
			} else {
				x[j] = r.NormFloat64()
			}
		}
		examples = append(examples, Example{X: x, Y: i % 4})
	}
	if got, want := m.Accuracy(examples), scalarAccuracy(m, examples); got != want {
		t.Fatalf("batched accuracy %v, scalar %v", got, want)
	}
	var batched []int
	m.predictBatches(examples, func(i, pred int) { batched = append(batched, pred) })
	for i, ex := range examples {
		if p := m.Predict(ex.X); p != batched[i] {
			t.Fatalf("example %d: batched pred %d, scalar pred %d", i, batched[i], p)
		}
	}
}

// oneHotLevels is the attack's default quantizer level count.
const oneHotLevels = 10

// oneHotSets builds data shaped like the attack's quantized windows: groups
// of oneHotLevels features with one nonzero each, so a tenth of the inputs
// are nonzero and layer 0 reads them sparsely. Group 0 sits at level 0 in
// every example, as a trace's idle level would, so one feature is nonzero
// in every row and the gradient kernel runs several row tiles on it. It
// adds the entries the sparse path must treat exactly as the scalar path
// does: an all-zero example in each set, a −0 (skipped like +0) and a
// non-unit value.
func oneHotSets(seed uint64, n, groups, classes int) (train, val []Example) {
	r := rng.New(seed)
	all := make([]Example, n)
	for i := range all {
		y := i % classes
		x := make([]float64, groups*oneHotLevels)
		x[0] = 1
		for g := 1; g < groups; g++ {
			x[g*oneHotLevels+(y*3+g+r.Intn(3))%oneHotLevels] = 1
		}
		all[i] = Example{X: x, Y: y}
	}
	cut := n * 3 / 4
	for _, e := range []int{3, cut} {
		clear(all[e].X)
	}
	all[5].X[1] = math.Copysign(0, -1)
	all[5].X[oneHotLevels+2] = -0.75
	all[9].X[2*oneHotLevels] = 2.5
	return all[:cut], all[cut:]
}

func TestSparseTrainMatchesScalar(t *testing.T) {
	eachGatherKernel(t, sparseTrainMatchesScalar)
}

func sparseTrainMatchesScalar(t *testing.T) {
	const groups, classes = 6, 3
	dim := groups * oneHotLevels
	train, val := oneHotSets(19, 100, groups, classes) // 75 train rows
	if sp := sparseInputs(dim, train, val); sp[0] == nil || sp[1] == nil {
		t.Fatal("one-hot data did not take the sparse path")
	}
	for _, bs := range []int{1, 7, 32} { // 7 and 32 leave a partial last batch
		cfg := TrainConfig{Epochs: 4, BatchSize: bs, LR: 3e-3, WeightDecay: 1e-5}
		a := NewMLP(rng.New(23), dim, 16, 8, classes)
		b := NewMLP(rng.New(23), dim, 16, 8, classes)
		var valA []float64
		a.Train(rng.New(24), train, val, logValAcc(cfg, &valA))
		valB := scalarTrain(b, rng.New(24), train, val, cfg)
		if len(valB) != cfg.Epochs || !slices.Equal(valA, valB) {
			t.Fatalf("batch=%d: per-epoch validation accuracy differs: sparse %v scalar %v", bs, valA, valB)
		}
		for l := range a.weights {
			for i, w := range a.weights[l].w {
				if math.Float64bits(w) != math.Float64bits(b.weights[l].w[i]) {
					t.Fatalf("batch=%d: layer %d weight %d differs: sparse %x scalar %x",
						bs, l, i, math.Float64bits(w), math.Float64bits(b.weights[l].w[i]))
				}
			}
			for j, bv := range a.biases[l] {
				if math.Float64bits(bv) != math.Float64bits(b.biases[l][j]) {
					t.Fatalf("batch=%d: layer %d bias %d differs: sparse %x scalar %x",
						bs, l, j, math.Float64bits(bv), math.Float64bits(b.biases[l][j]))
				}
			}
		}
		for _, set := range [][]Example{train, val} {
			if got, want := a.Accuracy(set), scalarAccuracy(a, set); got != want {
				t.Fatalf("batch=%d: sparse accuracy %v, scalar %v", bs, got, want)
			}
			a.predictBatches(set, func(i, pred int) {
				if p := a.Predict(set[i].X); p != pred {
					t.Fatalf("batch=%d: example %d: sparse pred %d, scalar pred %d", bs, i, pred, p)
				}
			})
		}
	}
}

// TestSparseInputsThreshold pins the dense/sparse switch at a quarter of
// the inputs nonzero, and which entries count: ±0 are left out, NaN and
// Inf kept, as the scalar forward pass's zero skip treats them.
func TestSparseInputsThreshold(t *testing.T) {
	quarter := []Example{{X: []float64{0, 3, 0, 0}}, {X: []float64{0, 0, math.Copysign(0, -1), 2}}, {X: []float64{1, 0, 0, 0}}}
	if sp := sparseInputs(4, quarter); sp[0] == nil {
		t.Fatal("inputs exactly a quarter nonzero stayed dense")
	}
	if sp := sparseInputs(4, quarter, []Example{{X: make([]float64, 4)}}); sp[0] == nil || sp[1] == nil {
		t.Fatal("inputs under a quarter nonzero stayed dense")
	}
	if sp := sparseInputs(4, quarter, []Example{{X: []float64{1, 1, 0, 0}}}); sp[0] != nil || sp[1] != nil {
		t.Fatal("inputs over a quarter nonzero went sparse")
	}
	x := []float64{math.NaN(), 0, math.Inf(-1), math.Copysign(0, -1), 0, 0, 0, 0, 0, 0, 0, 0}
	sp := sparseInputs(len(x), []Example{{X: x}})[0]
	if sp == nil {
		t.Fatal("a 1/6-nonzero example stayed dense")
	}
	if len(sp.idx) != 2 || sp.idx[0] != 0 || sp.idx[1] != 2 || !math.IsNaN(sp.val[0]) || !math.IsInf(sp.val[1], -1) || sp.maxNNZ != 2 {
		t.Fatalf("pairs %v %v (max %d), want NaN at 0 and -Inf at 2", sp.idx, sp.val, sp.maxNNZ)
	}
}

func TestConfusionStringGolden(t *testing.T) {
	cm := &ConfusionMatrix{
		Classes: []string{"a", "b", "c"},
		Matrix: [][]float64{
			{0.9, 0.1, 0},
			{0.25, 0.5, 0.25},
			{0, 0, 1},
		},
	}
	want := "true\\pred     0     1     2\n" +
		"       0   0.90  0.10  0.00\n" +
		"       1   0.25  0.50  0.25\n" +
		"       2   0.00  0.00  1.00\n" +
		"average accuracy: 80.0%\n"
	if got := cm.String(); got != want {
		t.Fatalf("rendering changed:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks: batched vs scalar kernels on an attack-shaped network: 2400
// inputs (Fig 6's one-hot window width for the default 24000-tick traces),
// the default 64/32 hidden layers and 11 classes. benchData's features are
// uniform and dense, every input nonzero, as the FFT and spectrogram
// features are, so layer 0 runs the dense kernels. Dense features are the
// worst case for the scalar path: it re-streams the full first-layer weight
// matrix for every example, where the batched kernel streams it once per
// minibatch. BenchmarkTrainOneHot feeds the one-hot windows Figs 6, 8 and
// 12 train on, a tenth nonzero, which layer 0 reads sparsely. Model
// initialization runs outside the timer: the benchmarks measure training
// epochs, and the init cost is identical constant work on both sides.

const (
	benchDim     = 2400
	benchClasses = 11
)

func benchData(b *testing.B) ([]Example, []Example) {
	b.Helper()
	r := rng.New(77)
	mk := func(n int) []Example {
		out := make([]Example, n)
		for i := range out {
			x := make([]float64, benchDim)
			for j := range x {
				x[j] = r.Float64()
			}
			out[i] = Example{X: x, Y: i % benchClasses}
		}
		return out
	}
	return mk(256), mk(64)
}

func benchCfg() TrainConfig {
	return TrainConfig{Epochs: 2, BatchSize: 32, LR: 3e-3, WeightDecay: 1e-5}
}

func benchTrain(b *testing.B, train, val []Example, fit func(*MLP)) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewMLP(rng.New(1), benchDim, 64, 32, benchClasses)
		b.StartTimer()
		fit(m)
	}
}

func BenchmarkTrainBatched(b *testing.B) {
	train, val := benchData(b)
	benchTrain(b, train, val, func(m *MLP) {
		m.Train(rng.New(2), train, val, benchCfg())
	})
}

// BenchmarkTrainOneHot trains on Fig 6's input shape: each example has one
// nonzero per oneHotLevels-wide group, a quantized level one-hot encoded.
func BenchmarkTrainOneHot(b *testing.B) {
	r := rng.New(78)
	mk := func(n int) []Example {
		out := make([]Example, n)
		for i := range out {
			x := make([]float64, benchDim)
			for g := 0; g < benchDim; g += oneHotLevels {
				x[g+r.Intn(oneHotLevels)] = 1
			}
			out[i] = Example{X: x, Y: i % benchClasses}
		}
		return out
	}
	train, val := mk(256), mk(64)
	benchTrain(b, train, val, func(m *MLP) {
		m.Train(rng.New(2), train, val, benchCfg())
	})
}

func BenchmarkTrainScalar(b *testing.B) {
	train, val := benchData(b)
	benchTrain(b, train, val, func(m *MLP) {
		scalarTrain(m, rng.New(2), train, val, benchCfg())
	})
}

func BenchmarkAccuracyBatched(b *testing.B) {
	train, _ := benchData(b)
	m := NewMLP(rng.New(1), benchDim, 64, 32, benchClasses)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Accuracy(train)
	}
}

func BenchmarkAccuracyScalar(b *testing.B) {
	train, _ := benchData(b)
	m := NewMLP(rng.New(1), benchDim, 64, 32, benchClasses)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scalarAccuracy(m, train)
	}
}
