package nn

import "math"

// batch holds reusable row-major minibatch buffers for the network's
// batched kernels: acts[l] and deltas[l] are rows×sizes[l] matrices stored
// row-major, labels carries each row's class. actsT[l] additionally keeps
// the transposed (feature-major) copy of each layer's input activations:
// the matrix kernels walk input features column-wise, and the transposed
// copy turns those walks into sequential streams for one cheap transpose
// pass per layer. One batch is allocated per Train/Accuracy/Confusion call
// and reused across every minibatch, so the kernels themselves never
// allocate.
//
// Layer 0 reads its input one of two ways, fixed when the batch is built.
// Dense inputs are gathered into actsT[0]. Sparse inputs (see sparseInputs)
// stay as each row's nonzero (feature, value) pairs, and the backward pass
// copies a minibatch's pairs feature-major into colRow/colVal. acts[0] and
// deltas[0] are never allocated: no kernel reads the input row-major, and
// no layer consumes the input's delta.
//
// The kernels accumulate each output element in exactly the order the
// original per-example loops did (example-index order per accumulator), so
// training is bit-for-bit identical to the scalar path for a fixed
// rng.Stream — only faster: weight rows are loaded once per minibatch
// instead of once per example.
type batch struct {
	cap    int // allocated row capacity
	acts   [][]float64
	actsT  [][]float64 // actsT[l]: sizes[l]×rows transpose of acts[l], l < len(weights)
	deltas [][]float64
	labels []int
	tRows  int // row count the input buffers were last loaded for

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
}

// newBatch allocates minibatch buffers for up to rows examples. With sp
// nil, layer 0 reads dense inputs; otherwise it reads sparse rows, and
// with grads the backward pass's feature-major copy is sized for rows
// examples of sp (at most sp.maxNNZ pairs each).
func (m *MLP) newBatch(rows int, sp *sparseRows, grads bool) *batch {
	if rows < 1 {
		rows = 1
	}
	bb := &batch{
		cap:    rows,
		acts:   make([][]float64, len(m.sizes)),
		actsT:  make([][]float64, len(m.sizes)-1),
		deltas: make([][]float64, len(m.sizes)),
		labels: make([]int, rows),
		sparse: sp != nil,
	}
	for i, s := range m.sizes[1:] {
		bb.acts[i+1] = make([]float64, rows*s)
		bb.deltas[i+1] = make([]float64, rows*s)
		if i+1 < len(bb.actsT) {
			bb.actsT[i+1] = make([]float64, rows*s)
		}
	}
	if sp == nil {
		bb.actsT[0] = make([]float64, rows*m.sizes[0])
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
	bb.finishLoad(rows)
	return rows
}

// loadRange stages examples[from:from+rows] in order (the evaluation path,
// which consumes examples sequentially without an index permutation).
func (bb *batch) loadRange(examples []Example, sp *sparseRows, from, rows int) {
	for bi := 0; bi < rows; bi++ {
		bb.stage(bi, examples, sp, from+bi)
	}
	bb.finishLoad(rows)
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

// finishLoad completes loading rows staged rows. The kernels only ever
// read a dense input layer feature-major, so its features go straight
// from each example into actsT[0] without a row-major staging copy.
func (bb *batch) finishLoad(rows int) {
	if !bb.sparse {
		bb.gather(rows)
	}
	bb.tRows = rows
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
			forwardDense(out, w, m.biases[l], bb.actsT[l], rows)
		}
		if l != last {
			hot := out[:rows*w.cols]
			for j := range hot {
				if hot[j] < 0 {
					hot[j] = 0 // ReLU
				}
			}
			bb.transpose(l+1, w.cols, rows)
		}
	}
	outW := m.sizes[len(m.sizes)-1]
	logp := bb.acts[len(bb.acts)-1]
	for bi := 0; bi < rows; bi++ {
		logSoftmax(logp[bi*outW : (bi+1)*outW])
	}
}

// forwardDense computes one layer's pre-activations out = inTᵀ·W + b for
// rows rows of the feature-major input inT. Each group of four weight rows
// is reused across all batch rows — the matrix-matrix form of the scalar
// forward pass — and added into each output row by axpy4Skip. Per output
// element `o + x0·r0 + x1·r1 + x2·r2 + x3·r3` associates left to right,
// with zero terms skipped, which is exactly the scalar path's sequential
// order, so results are bit-identical.
//
//maya:hotpath
func forwardDense(out []float64, w *dense, b, inT []float64, rows int) {
	inW, cols := w.rows, w.cols
	for bi := 0; bi < rows; bi++ {
		copy(out[bi*cols:(bi+1)*cols], b)
	}
	i := 0
	for ; i+4 <= inW; i += 4 {
		r0 := w.w[i*cols:]
		r1 := w.w[(i+1)*cols:]
		r2 := w.w[(i+2)*cols:]
		r3 := w.w[(i+3)*cols:]
		xa := inT[i*rows:]
		xa = xa[:rows]
		xb := inT[(i+1)*rows:]
		xb = xb[:rows]
		xc := inT[(i+2)*rows:]
		xc = xc[:rows]
		xd := inT[(i+3)*rows:]
		xd = xd[:rows]
		for bi := range xa {
			o := out[bi*cols:]
			axpy4Skip(o[:cols], xa[bi], xb[bi], xc[bi], xd[bi], r0, r1, r2, r3)
		}
	}
	for ; i < inW; i++ {
		row := w.w[i*cols:]
		row = row[:cols]
		xcol := inT[i*rows:]
		xcol = xcol[:rows]
		for bi, xi := range xcol {
			if xi != 0 {
				o := out[bi*cols:]
				axpy1(o[:cols], xi, row)
			}
		}
	}
}

// forwardSparse computes layer 0's pre-activations from sparse rows: row
// bi's output starts at the bias and adds its nonzero features in
// ascending order, four weight rows per axpy4. Its
// `o + x0·r0 + x1·r1 + x2·r2 + x3·r3` associates left to right, so each
// output element sums the scalar path's terms in the scalar path's order;
// the zeros it skips are simply absent.
//
//maya:hotpath
func forwardSparse(out []float64, w *dense, b []float64, idx [][]int32, val [][]float64) {
	cols := w.cols
	for bi, ix := range idx {
		o := out[bi*cols:]
		o = o[:cols]
		copy(o, b)
		xv := val[bi]
		xv = xv[:len(ix)]
		for ; len(ix) >= 4; ix, xv = ix[4:], xv[4:] {
			r0 := w.w[int(ix[0])*cols:]
			r1 := w.w[int(ix[1])*cols:]
			r2 := w.w[int(ix[2])*cols:]
			r3 := w.w[int(ix[3])*cols:]
			axpy4(o, xv[0], xv[1], xv[2], xv[3], r0[:cols], r1[:cols], r2[:cols], r3[:cols])
		}
		for k, f := range ix {
			r := w.w[int(f)*cols:]
			axpy1(o, xv[k], r[:cols])
		}
	}
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
		inT := bb.actsT[l]
		d := bb.deltas[l+1]
		if l == 0 && bb.sparse {
			bb.gradSparse(gw[0], d, rows)
		} else {
			gradDense(gw[l], d, inT, rows)
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
// rows of the feature-major input inT: each gradient row takes the batch's
// delta rows four at a time through axpy4Skip. Its
// `g + x0·d0 + x1·d1 + x2·d2 + x3·d3` associates left to right, with zero
// terms skipped — batch-row order, exactly the scalar path's summation
// order per gradient element.
//
//maya:hotpath
func gradDense(g *dense, d, inT []float64, rows int) {
	inW, cols := g.rows, g.cols
	for i := 0; i < inW; i++ {
		grow := g.w[i*cols:]
		grow = grow[:cols]
		xcol := inT[i*rows:]
		xcol = xcol[:rows]
		bi := 0
		for ; bi+4 <= rows; bi += 4 {
			d0 := d[bi*cols:]
			d1 := d[(bi+1)*cols:]
			d2 := d[(bi+2)*cols:]
			d3 := d[(bi+3)*cols:]
			axpy4Skip(grow, xcol[bi], xcol[bi+1], xcol[bi+2], xcol[bi+3], d0, d1, d2, d3)
		}
		for ; bi < rows; bi++ {
			if xi := xcol[bi]; xi != 0 {
				drow := d[bi*cols:]
				axpy1(grow, xi, drow[:cols])
			}
		}
	}
}

// gradSparse accumulates layer 0's weight gradient G += Xᵀ·D from the
// batch's sparse rows. It first copies the rows' pairs feature-major, a
// counting sort by feature that keeps each feature's rows ascending; then
// each feature's gradient row takes its rows four at a time through
// axpy4. Its `g + x0·d0 + x1·d1 + x2·d2 + x3·d3` associates left to
// right, so each gradient element sums in ascending row order, the scalar
// path's order.
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
		grow = grow[:cols]
		rs, xs := colRow[lo:hi], colVal[lo:hi]
		lo = hi
		for ; len(rs) >= 4; rs, xs = rs[4:], xs[4:] {
			d0 := d[int(rs[0])*cols:]
			d1 := d[int(rs[1])*cols:]
			d2 := d[int(rs[2])*cols:]
			d3 := d[int(rs[3])*cols:]
			axpy4(grow, xs[0], xs[1], xs[2], xs[3], d0[:cols], d1[:cols], d2[:cols], d3[:cols])
		}
		for k, r := range rs {
			drow := d[int(r)*cols:]
			axpy1(grow, xs[k], drow[:cols])
		}
	}
}

// axpy4Skip adds four scaled rows into o as axpy4 does, except that a
// term whose scale is exactly zero is skipped: when any of x0..x3 is zero
// the nonzero ones are added one row at a time, in order. This is the
// scalar path's zero skip, and its summation order, for the dense kernels,
// whose inputs (ReLU activations, dense features) may hold exact zeros.
//
//maya:hotpath
func axpy4Skip(o []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float64) {
	r0 = r0[:len(o)]
	r1 = r1[:len(o)]
	r2 = r2[:len(o)]
	r3 = r3[:len(o)]
	if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
		axpy4(o, x0, x1, x2, x3, r0, r1, r2, r3)
		return
	}
	if x0 != 0 {
		axpy1(o, x0, r0)
	}
	if x1 != 0 {
		axpy1(o, x1, r1)
	}
	if x2 != 0 {
		axpy1(o, x2, r2)
	}
	if x3 != 0 {
		axpy1(o, x3, r3)
	}
}

// checkBatchRows panics when a kernel is invoked for a row count the
// transposed activation buffers were not built for. It lives outside the
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
