package nn

import "math"

// batch holds reusable row-major minibatch buffers for the network's
// batched kernels: acts[l] and deltas[l] are rows×sizes[l] matrices stored
// row-major, labels carries each row's class. A batch built for training
// also keeps actsT[l], the transposed (feature-major) copy of each layer's
// input activations, which the backward pass rebuilds before it walks the
// layer's input features. One batch is allocated per Train/Accuracy/
// Confusion call and reused across every minibatch, so the kernels
// themselves never allocate.
//
// Layer 0 reads its input one of two ways, fixed when the batch is built.
// Dense inputs are read from each example's feature slice, and gathered
// into actsT[0] for the backward pass. Sparse inputs (see sparseInputs)
// stay as each row's nonzero (feature, value) pairs, and the backward pass
// copies a minibatch's pairs feature-major into colRow/colVal. acts[0] and
// deltas[0] are never allocated: no kernel reads the input through them,
// and no layer consumes the input's delta.
//
// Every forward and weight-gradient kernel is one gatherAxpy call per
// output row, over that row's nonzero terms in ascending order, so each
// output row is loaded and stored once while all of its terms are added
// in registers. Each output element accumulates in exactly the order the
// original per-example loops did (example-index order per gradient
// element), so training is bit-for-bit identical to the scalar path for a
// fixed rng.Stream.
type batch struct {
	cap    int // allocated row capacity
	acts   [][]float64
	actsT  [][]float64 // actsT[l]: sizes[l]×rows transpose of acts[l], l < len(weights)
	deltas [][]float64
	labels []int
	tRows  int // row count last loaded

	sparse bool
	xsrc   [][]float64 // dense: the rows' example feature slices
	spIdx  [][]int32   // sparse: each row's nonzero feature indices, ascending
	spVal  [][]float64 // sparse: the values at those indices
	// colEnd, colRow and colVal are the sparse rows feature-major, rebuilt
	// by each backward pass: feature f's rows and values sit at
	// [colEnd[f-1], colEnd[f]) of colRow and colVal (from 0 for f = 0).
	colEnd []int
	colRow []int32
	colVal []float64
	// nzVal and nzIdx receive the nonzero entries, and their positions, of
	// one input row (forwardDense) or one input feature's column
	// (gradDense): the terms of one gatherAxpy call.
	nzVal []float64
	nzIdx []int32
}

// newBatch allocates minibatch buffers for up to rows examples. With sp
// nil, layer 0 reads dense inputs; otherwise it reads sparse rows. With
// grads the batch also holds what the backward pass needs: the deltas,
// the transposed activations and, on sparse rows, the feature-major copy
// sized for rows examples of sp (at most sp.maxNNZ pairs each).
func (m *MLP) newBatch(rows int, sp *sparseRows, grads bool) *batch {
	if rows < 1 {
		rows = 1
	}
	L := len(m.weights)
	bb := &batch{
		cap:    rows,
		acts:   make([][]float64, len(m.sizes)),
		deltas: make([][]float64, len(m.sizes)),
		labels: make([]int, rows),
		sparse: sp != nil,
	}
	for l, s := range m.sizes[1:] {
		bb.acts[l+1] = make([]float64, rows*s)
	}
	nz := 0 // the longest input row forwardDense compacts
	for l, s := range m.sizes[:L] {
		if l > 0 || sp == nil {
			nz = max(nz, s)
		}
	}
	if grads {
		nz = max(nz, rows) // gradDense compacts a column of rows entries
		bb.actsT = make([][]float64, L)
		for l, s := range m.sizes[:L] {
			if l > 0 || sp == nil {
				bb.actsT[l] = make([]float64, rows*s)
			}
			bb.deltas[l+1] = make([]float64, rows*m.sizes[l+1])
		}
	}
	bb.nzVal = make([]float64, nz)
	bb.nzIdx = make([]int32, nz)
	if sp == nil {
		bb.xsrc = make([][]float64, rows)
		return bb
	}
	bb.spIdx = make([][]int32, rows)
	bb.spVal = make([][]float64, rows)
	if grads {
		bb.colEnd = make([]int, m.sizes[0]+1)
		bb.colRow = make([]int32, rows*sp.maxNNZ)
		bb.colVal = make([]float64, rows*sp.maxNNZ)
	}
	return bb
}

// sparseMaxDensity is the largest fraction of nonzero inputs at which
// layer 0 reads its input sparsely. The attack's one-hot windows are
// 1/Levels nonzero (10 % at the default 10 levels); its FFT and
// spectrogram features are nearly all nonzero and stay dense.
const sparseMaxDensity = 0.25

// sparseRows holds a set of examples' nonzero inputs: example e's feature
// indices are idx[start[e]:start[e+1]], ascending, with their values at the
// same positions of val. Exact zeros (±0) are left out, as the scalar
// forward pass skips them; NaN and Inf are kept.
type sparseRows struct {
	start  []int
	idx    []int32
	val    []float64
	maxNNZ int // the most pairs any one example has
}

// sparseInputs counts the nonzero inputs across sets, one call's examples.
// When at most sparseMaxDensity of them are nonzero it returns each set's
// nonzero pairs, in arrays sized exactly by that count; otherwise every
// entry is nil and layer 0 runs the dense kernels. It panics if an example
// does not have in features.
func sparseInputs(in int, sets ...[]Example) []*sparseRows {
	out := make([]*sparseRows, len(sets))
	total := 0
	for _, examples := range sets {
		for _, ex := range examples {
			if len(ex.X) != in {
				panic("nn: example feature size does not match network input size")
			}
		}
		total += len(examples) * in
	}
	if in > math.MaxInt32 {
		return out
	}
	// Counting stops as soon as the inputs are known to be dense, so
	// dense features pay for about a quarter of a pass over them.
	budget := int(sparseMaxDensity * float64(total))
	for k, examples := range sets {
		s := &sparseRows{start: make([]int, len(examples)+1)}
		for e, ex := range examples {
			n := 0
			for _, v := range ex.X {
				if v != 0 {
					n++
				}
			}
			if budget -= n; budget < 0 {
				clear(out)
				return out
			}
			s.start[e+1] = s.start[e] + n
			s.maxNNZ = max(s.maxNNZ, n)
		}
		out[k] = s
	}
	for k, examples := range sets {
		s := out[k]
		s.idx = make([]int32, s.start[len(examples)])
		s.val = make([]float64, len(s.idx))
		p := 0
		for _, ex := range examples {
			for i, v := range ex.X {
				if v != 0 {
					s.idx[p], s.val[p] = int32(i), v
					p++
				}
			}
		}
	}
	return out
}

// transpose rebuilds actsT[l] from the first rows rows of acts[l].
//
//maya:hotpath
func (bb *batch) transpose(l, width, rows int) {
	src := bb.acts[l]
	dst := bb.actsT[l]
	for i := 0; i < width; i++ {
		col := dst[i*rows:]
		col = col[:rows]
		for bi := range col {
			col[bi] = src[bi*width+i]
		}
	}
}

// load stages examples[idx[bi]] as batch row bi and returns the row count.
// sp is examples' sparse form on a sparse batch, nil on a dense one.
func (bb *batch) load(examples []Example, sp *sparseRows, idx []int) int {
	rows := len(idx)
	if rows > bb.cap {
		panic("nn: minibatch larger than batch buffer capacity")
	}
	for bi, e := range idx {
		bb.stage(bi, examples, sp, e)
	}
	bb.tRows = rows
	return rows
}

// loadRange stages examples[from:from+rows] in order (the evaluation path,
// which consumes examples sequentially without an index permutation).
func (bb *batch) loadRange(examples []Example, sp *sparseRows, from, rows int) {
	for bi := 0; bi < rows; bi++ {
		bb.stage(bi, examples, sp, from+bi)
	}
	bb.tRows = rows
}

// stage makes example e batch row bi.
func (bb *batch) stage(bi int, examples []Example, sp *sparseRows, e int) {
	bb.labels[bi] = examples[e].Y
	if !bb.sparse {
		bb.xsrc[bi] = examples[e].X
		return
	}
	lo, hi := sp.start[e], sp.start[e+1]
	bb.spIdx[bi], bb.spVal[bi] = sp.idx[lo:hi], sp.val[lo:hi]
}

// gather writes the first rows staged feature slices into actsT[0], which
// holds cap rows of every input feature, feature-major — rows parallel
// sequential reads, one sequential write stream.
//
//maya:hotpath
func (bb *batch) gather(rows int) {
	t0 := bb.actsT[0]
	in := len(t0) / bb.cap
	xs := bb.xsrc[:rows]
	for i := 0; i < in; i++ {
		col := t0[i*rows:]
		col = col[:rows]
		for bi := range col {
			col[bi] = xs[bi][i]
		}
	}
}

// forwardBatch runs the network forward over the rows loaded into bb,
// leaving per-row log-probabilities in the last activation matrix. Layer 0
// runs forwardSparse on a sparse batch; every other layer, and layer 0 of
// a dense batch, runs forwardDense.
//
//maya:hotpath
func (m *MLP) forwardBatch(bb *batch, rows int) {
	checkBatchRows(bb.tRows == rows)
	last := len(m.weights) - 1
	for l, w := range m.weights {
		out := bb.acts[l+1]
		if l == 0 && bb.sparse {
			forwardSparse(out, w, m.biases[0], bb.spIdx[:rows], bb.spVal[:rows])
		} else {
			bb.forwardDense(out, w, m.biases[l], l, rows)
		}
		if l != last {
			hot := out[:rows*w.cols]
			for j := range hot {
				if hot[j] < 0 {
					hot[j] = 0 // ReLU
				}
			}
		}
	}
	outW := m.sizes[len(m.sizes)-1]
	logp := bb.acts[len(bb.acts)-1]
	for bi := 0; bi < rows; bi++ {
		logSoftmax(logp[bi*outW : (bi+1)*outW])
	}
}

// forwardDense computes layer l's pre-activations out = X·W + b for rows
// rows of its input X: the staged examples' features for layer 0, acts[l]
// otherwise. Each output row starts at the bias and takes the weight rows
// of its input row's nonzero entries, in ascending order, through one
// gatherAxpy: the scalar path's terms in the scalar path's order, with
// the zeros it skips simply absent.
//
//maya:hotpath
func (bb *batch) forwardDense(out []float64, w *dense, b []float64, l, rows int) {
	inW, cols := w.rows, w.cols
	for bi := 0; bi < rows; bi++ {
		var x []float64
		if l == 0 {
			x = bb.xsrc[bi]
		} else {
			x = bb.acts[l][bi*inW:]
		}
		n := nonzeros(bb.nzVal, bb.nzIdx, x[:inW])
		o := out[bi*cols:]
		o = o[:cols]
		copy(o, b)
		gatherAxpy(o, bb.nzVal[:n], bb.nzIdx[:n], w.w)
	}
}

// forwardSparse computes layer 0's pre-activations from sparse rows: row
// bi's output starts at the bias and takes the weight rows of its nonzero
// features, in ascending order, through one gatherAxpy. Each output
// element sums the scalar path's terms in the scalar path's order; the
// zeros it skips are simply absent.
//
//maya:hotpath
func forwardSparse(out []float64, w *dense, b []float64, idx [][]int32, val [][]float64) {
	cols := w.cols
	for bi, ix := range idx {
		o := out[bi*cols:]
		o = o[:cols]
		copy(o, b)
		gatherAxpy(o, val[bi][:len(ix)], ix, w.w)
	}
}

// nonzeros writes x's nonzero entries (NaN and Inf included, ±0 left out,
// as the scalar path's zero skip treats them) and their positions to the
// front of xs and ix, in order, and returns their count. xs and ix must
// hold len(x) elements. Every entry is written and only the count is
// conditional, so ReLU's unpredictable zeros cost no branch.
//
//maya:hotpath
func nonzeros(xs []float64, ix []int32, x []float64) int {
	xs = xs[:len(x)]
	ix = ix[:len(x)]
	n := 0
	for i, v := range x {
		xs[n], ix[n] = v, int32(i)
		if v != 0 {
			n++
		}
	}
	return n
}

// backwardBatch accumulates gradients for the first rows rows into gw/gb.
// bb must hold the forward activations and labels for those rows. Per
// gradient element the example contributions arrive in row order — the
// same floating-point summation order as the scalar per-example loop.
// Layer 0's weight gradient runs gradSparse on a sparse batch; every other
// weight gradient runs gradDense.
//
//maya:hotpath
func (m *MLP) backwardBatch(bb *batch, rows int, gw []*dense, gb [][]float64) {
	checkBatchRows(bb.tRows == rows)
	L := len(m.weights)
	outW := m.sizes[L]
	out := bb.acts[L]
	dOut := bb.deltas[L]
	// Output delta per row: softmax − onehot (derivative of NLL∘LogSoftmax).
	for bi := 0; bi < rows; bi++ {
		o := out[bi*outW : (bi+1)*outW]
		d := dOut[bi*outW : (bi+1)*outW]
		y := bb.labels[bi]
		for j := range d {
			p := math.Exp(o[j])
			if j == y {
				p -= 1
			}
			d[j] = p
		}
	}
	for l := L - 1; l >= 0; l-- {
		w := m.weights[l]
		inW, cols := w.rows, w.cols
		d := bb.deltas[l+1]
		if l == 0 && bb.sparse {
			bb.gradSparse(gw[0], d, rows)
		} else {
			if l > 0 {
				bb.transpose(l, inW, rows)
			} else {
				bb.gather(rows)
			}
			bb.gradDense(gw[l], d, bb.actsT[l], rows)
		}
		bg := gb[l]
		for bi := 0; bi < rows; bi++ {
			drow := d[bi*cols : (bi+1)*cols]
			for j, dv := range drow {
				bg[j] += dv
			}
		}
		if l == 0 {
			break
		}
		// Propagate: Dprev = (D·Wᵀ) ⊙ ReLU'(act). Four weight rows per pass
		// give four independent dot-product chains over one delta row; each
		// dot product keeps the scalar path's j order. Dots for ReLU-dead
		// units are computed and discarded — the stored value is 0 either
		// way, so results are unchanged and the loop stays branch-light.
		inT := bb.actsT[l]
		dPrev := bb.deltas[l]
		i := 0
		for ; i+4 <= inW; i += 4 {
			w0 := w.w[i*cols:]
			w0 = w0[:cols]
			w1 := w.w[(i+1)*cols:]
			w1 = w1[:cols]
			w2 := w.w[(i+2)*cols:]
			w2 = w2[:cols]
			w3 := w.w[(i+3)*cols:]
			w3 = w3[:cols]
			xa := inT[i*rows:]
			xa = xa[:rows]
			xb := inT[(i+1)*rows:]
			xb = xb[:rows]
			xc := inT[(i+2)*rows:]
			xc = xc[:rows]
			xd := inT[(i+3)*rows:]
			xd = xd[:rows]
			for bi := range xa {
				drow := d[bi*cols:]
				drow = drow[:cols]
				var s0, s1, s2, s3 float64
				for j, dv := range drow {
					s0 += w0[j] * dv
					s1 += w1[j] * dv
					s2 += w2[j] * dv
					s3 += w3[j] * dv
				}
				p := dPrev[bi*inW+i : bi*inW+i+4]
				p[0], p[1], p[2], p[3] = 0, 0, 0, 0
				if xa[bi] > 0 {
					p[0] = s0
				}
				if xb[bi] > 0 {
					p[1] = s1
				}
				if xc[bi] > 0 {
					p[2] = s2
				}
				if xd[bi] > 0 {
					p[3] = s3
				}
			}
		}
		for ; i < inW; i++ {
			wrow := w.w[i*cols:]
			wrow = wrow[:cols]
			xcol := inT[i*rows:]
			xcol = xcol[:rows]
			for bi, xi := range xcol {
				if xi <= 0 { // ReLU derivative is 0 here
					dPrev[bi*inW+i] = 0
					continue
				}
				drow := d[bi*cols:]
				drow = drow[:cols]
				s := 0.0
				for j, wv := range drow {
					s += wrow[j] * wv
				}
				dPrev[bi*inW+i] = s
			}
		}
	}
}

// gradDense accumulates one layer's weight gradient G += Xᵀ·D for rows
// rows of the feature-major input inT: gradient row i takes the delta rows
// of the batch rows where input i is nonzero, in ascending row order,
// through one gatherAxpy — exactly the scalar path's summation order per
// gradient element, with the zero terms it skips absent.
//
//maya:hotpath
func (bb *batch) gradDense(g *dense, d, inT []float64, rows int) {
	inW, cols := g.rows, g.cols
	for i := 0; i < inW; i++ {
		xcol := inT[i*rows:]
		n := nonzeros(bb.nzVal, bb.nzIdx, xcol[:rows])
		grow := g.w[i*cols:]
		gatherAxpy(grow[:cols], bb.nzVal[:n], bb.nzIdx[:n], d)
	}
}

// gradSparse accumulates layer 0's weight gradient G += Xᵀ·D from the
// batch's sparse rows. It first copies the rows' pairs feature-major, a
// counting sort by feature that keeps each feature's rows ascending; then
// each feature's gradient row takes the delta rows of its rows through
// one gatherAxpy, so each gradient element sums in ascending row order,
// the scalar path's order.
//
//maya:hotpath
func (bb *batch) gradSparse(g *dense, d []float64, rows int) {
	cols := g.cols
	ends := bb.colEnd
	clear(ends)
	idx, val := bb.spIdx[:rows], bb.spVal[:rows]
	for _, ix := range idx {
		for _, f := range ix {
			ends[f+1]++
		}
	}
	for f := 1; f < len(ends); f++ {
		ends[f] += ends[f-1]
	}
	// ends[f] is now feature f's first slot; filling advances it to the
	// slot after feature f's last, where the layout above wants it.
	colRow, colVal := bb.colRow, bb.colVal
	for bi, ix := range idx {
		xv := val[bi]
		xv = xv[:len(ix)]
		for k, f := range ix {
			p := ends[f]
			colRow[p], colVal[p] = int32(bi), xv[k]
			ends[f] = p + 1
		}
	}
	lo := 0
	for f, hi := range ends[:len(ends)-1] {
		if hi == lo {
			continue
		}
		grow := g.w[f*cols:]
		gatherAxpy(grow[:cols], colVal[lo:hi], colRow[lo:hi], d)
		lo = hi
	}
}

// checkBatchRows panics when a kernel is invoked for a row count other
// than the one last loaded into the batch. It lives outside the
// hot kernels so the panic's string boxing stays off the //maya:hotpath
// allocation budget.
func checkBatchRows(ok bool) {
	if !ok {
		panic("nn: batch kernels invoked without a matching load")
	}
}

// evalBatchSize is the row count used by the batched evaluation paths
// (Accuracy, Confusion). Results do not depend on it — rows are
// independent — so it is purely a cache/footprint trade-off.
const evalBatchSize = 64

// predictBatches runs batched forward passes over examples and calls visit
// with each example's index and predicted class, in order.
func (m *MLP) predictBatches(examples []Example, visit func(i, pred int)) {
	if len(examples) == 0 {
		return
	}
	sp := sparseInputs(m.sizes[0], examples)[0]
	bb := m.newBatch(min(evalBatchSize, len(examples)), sp, false)
	m.predictWithBatch(bb, examples, sp, visit)
}

// predictWithBatch is predictBatches over a caller-provided batch buffer
// and examples' sparse form (nil on a dense batch); Train uses it to
// score the validation set after each epoch, when it scores it, without
// reallocating.
// Predictions do not depend on the buffer's row capacity — rows are
// independent.
func (m *MLP) predictWithBatch(bb *batch, examples []Example, sp *sparseRows, visit func(i, pred int)) {
	rows := bb.cap
	outW := m.sizes[len(m.sizes)-1]
	logp := bb.acts[len(bb.acts)-1]
	for from := 0; from < len(examples); from += rows {
		n := rows
		if from+n > len(examples) {
			n = len(examples) - from
		}
		bb.loadRange(examples, sp, from, n)
		m.forwardBatch(bb, n)
		for bi := 0; bi < n; bi++ {
			row := logp[bi*outW : (bi+1)*outW]
			best := 0
			for j, v := range row {
				if v > row[best] {
					best = j
				}
			}
			visit(from+bi, best)
		}
	}
}
