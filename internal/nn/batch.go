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
	xsrc   [][]float64 // scratch: the batch's example feature slices
	tRows  int         // row count the actsT buffers were last built for
}

// newBatch allocates minibatch buffers for up to rows examples.
func (m *MLP) newBatch(rows int) *batch {
	if rows < 1 {
		rows = 1
	}
	bb := &batch{
		cap:    rows,
		acts:   make([][]float64, len(m.sizes)),
		actsT:  make([][]float64, len(m.sizes)-1),
		deltas: make([][]float64, len(m.sizes)),
		labels: make([]int, rows),
		xsrc:   make([][]float64, 0, rows),
	}
	for i, s := range m.sizes {
		bb.acts[i] = make([]float64, rows*s)
		bb.deltas[i] = make([]float64, rows*s)
		if i < len(m.sizes)-1 {
			bb.actsT[i] = make([]float64, rows*s)
		}
	}
	return bb
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

// load gathers examples into the batch's transposed input matrix and
// labels, returning the row count. The kernels only ever read the input
// layer feature-major, so the features go straight from each example into
// actsT[0] without a row-major staging copy. It panics if an example does
// not match the input size.
func (bb *batch) load(m *MLP, examples []Example, idx []int) int {
	rows := len(idx)
	if rows > bb.cap {
		panic("nn: minibatch larger than batch buffer capacity")
	}
	in := m.sizes[0]
	xs := bb.xsrc[:0]
	for bi, i := range idx {
		ex := examples[i]
		if len(ex.X) != in {
			panic("nn: example feature size does not match network input size")
		}
		xs = append(xs, ex.X)
		bb.labels[bi] = ex.Y
	}
	bb.gather(xs, in, rows)
	return rows
}

// loadRange gathers examples[from:from+rows] in order (the evaluation path,
// which consumes examples sequentially without an index permutation).
func (bb *batch) loadRange(m *MLP, examples []Example, from, rows int) {
	in := m.sizes[0]
	xs := bb.xsrc[:0]
	for bi := 0; bi < rows; bi++ {
		ex := examples[from+bi]
		if len(ex.X) != in {
			panic("nn: example feature size does not match network input size")
		}
		xs = append(xs, ex.X)
		bb.labels[bi] = ex.Y
	}
	bb.gather(xs, in, rows)
}

// gather writes the batch's feature slices into actsT[0] feature-major —
// rows parallel sequential reads, one sequential write stream.
//
//maya:hotpath
func (bb *batch) gather(xs [][]float64, in, rows int) {
	t0 := bb.actsT[0]
	for i := 0; i < in; i++ {
		col := t0[i*rows:]
		col = col[:rows]
		for bi := range col {
			col[bi] = xs[bi][i]
		}
	}
	bb.tRows = rows
}

// forwardBatch runs the network forward over the first rows rows of
// bb.acts[0], leaving per-row log-probabilities in the last activation
// matrix. Each weight row is streamed once per minibatch and reused across
// all rows — the matrix-matrix form of the scalar forward pass — in 4×2
// tiles: four input features by two batch rows, so each weight load feeds
// two independent accumulators (wider tiles spill registers and run slower). Per output element the unrolled accumulation
// `o + x0·r0 + x1·r1 + x2·r2 + x3·r3` associates left-to-right, which is
// exactly the scalar path's sequential order, so results are bit-identical;
// the two rows never mix.
//
//maya:hotpath
func (m *MLP) forwardBatch(bb *batch, rows int) {
	checkBatchRows(bb.tRows == rows)
	last := len(m.weights) - 1
	for l, w := range m.weights {
		inW, cols := w.rows, w.cols
		inT, out := bb.actsT[l], bb.acts[l+1]
		b := m.biases[l]
		for bi := 0; bi < rows; bi++ {
			copy(out[bi*cols:(bi+1)*cols], b)
		}
		i := 0
		for ; i+4 <= inW; i += 4 {
			// Two-step reslices pin every row's length so the compiler
			// proves all the inner-loop indexing in bounds.
			r0 := w.w[i*cols:]
			r0 = r0[:cols]
			r1 := w.w[(i+1)*cols:]
			r1 = r1[:cols]
			r2 := w.w[(i+2)*cols:]
			r2 = r2[:cols]
			r3 := w.w[(i+3)*cols:]
			r3 = r3[:cols]
			xa := inT[i*rows:]
			xa = xa[:rows]
			xb := inT[(i+1)*rows:]
			xb = xb[:rows]
			xc := inT[(i+2)*rows:]
			xc = xc[:rows]
			xd := inT[(i+3)*rows:]
			xd = xd[:rows]
			bi := 0
			for ; bi+2 <= rows; bi += 2 {
				x0, x1, x2, x3 := xa[bi], xb[bi], xc[bi], xd[bi]
				y0, y1, y2, y3 := xa[bi+1], xb[bi+1], xc[bi+1], xd[bi+1]
				oa := out[bi*cols:]
				oa = oa[:cols]
				ob := out[(bi+1)*cols:]
				ob = ob[:cols]
				if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 && y0 != 0 && y1 != 0 && y2 != 0 && y3 != 0 {
					for j := range oa {
						rv0, rv1, rv2, rv3 := r0[j], r1[j], r2[j], r3[j]
						oa[j] = oa[j] + x0*rv0 + x1*rv1 + x2*rv2 + x3*rv3
						ob[j] = ob[j] + y0*rv0 + y1*rv1 + y2*rv2 + y3*rv3
					}
					continue
				}
				forwardRow4(oa, x0, x1, x2, x3, r0, r1, r2, r3)
				forwardRow4(ob, y0, y1, y2, y3, r0, r1, r2, r3)
			}
			for ; bi < rows; bi++ {
				o := out[bi*cols:]
				o = o[:cols]
				forwardRow4(o, xa[bi], xb[bi], xc[bi], xd[bi], r0, r1, r2, r3)
			}
		}
		for ; i < inW; i++ {
			row := w.w[i*cols:]
			row = row[:cols]
			xcol := inT[i*rows:]
			xcol = xcol[:rows]
			for bi, xi := range xcol {
				if xi == 0 {
					continue
				}
				o := out[bi*cols:]
				o = o[:cols]
				for j, wv := range row {
					o[j] += xi * wv
				}
			}
		}
		if l != last {
			hot := out[:rows*cols]
			for j := range hot {
				if hot[j] < 0 {
					hot[j] = 0 // ReLU
				}
			}
			bb.transpose(l+1, cols, rows)
		}
	}
	outW := m.sizes[len(m.sizes)-1]
	logp := bb.acts[len(bb.acts)-1]
	for bi := 0; bi < rows; bi++ {
		logSoftmax(logp[bi*outW : (bi+1)*outW])
	}
}

// backwardBatch accumulates gradients for the first rows rows into gw/gb.
// bb must hold the forward activations and labels for those rows. Per
// gradient element the example contributions arrive in row order — the
// same floating-point summation order as the scalar per-example loop.
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
		// Weight gradients: G += Xᵀ·D in 4×2 tiles: four batch rows by two
		// gradient rows, so each delta load feeds two independent gradient
		// accumulators (wider tiles spill registers and run slower). The unrolled `g + x0·d0 + x1·d1 + x2·d2 + x3·d3`
		// associates left-to-right — batch-row order, exactly the scalar
		// path's summation order per gradient element; the two rows never mix.
		g := gw[l]
		i := 0
		for ; i+2 <= inW; i += 2 {
			grow0 := g.w[i*cols:]
			grow0 = grow0[:cols]
			grow1 := g.w[(i+1)*cols:]
			grow1 = grow1[:cols]
			xc0 := inT[i*rows:]
			xc0 = xc0[:rows]
			xc1 := inT[(i+1)*rows:]
			xc1 = xc1[:rows]
			bi := 0
			for ; bi+4 <= rows; bi += 4 {
				x0, x1, x2, x3 := xc0[bi], xc0[bi+1], xc0[bi+2], xc0[bi+3]
				y0, y1, y2, y3 := xc1[bi], xc1[bi+1], xc1[bi+2], xc1[bi+3]
				d0 := d[bi*cols:]
				d0 = d0[:cols]
				d1 := d[(bi+1)*cols:]
				d1 = d1[:cols]
				d2 := d[(bi+2)*cols:]
				d2 = d2[:cols]
				d3 := d[(bi+3)*cols:]
				d3 = d3[:cols]
				if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 && y0 != 0 && y1 != 0 && y2 != 0 && y3 != 0 {
					for j := range grow0 {
						dv0, dv1, dv2, dv3 := d0[j], d1[j], d2[j], d3[j]
						grow0[j] = grow0[j] + x0*dv0 + x1*dv1 + x2*dv2 + x3*dv3
						grow1[j] = grow1[j] + y0*dv0 + y1*dv1 + y2*dv2 + y3*dv3
					}
					continue
				}
				gradRow4(grow0, x0, x1, x2, x3, d0, d1, d2, d3)
				gradRow4(grow1, y0, y1, y2, y3, d0, d1, d2, d3)
			}
			for ; bi < rows; bi++ {
				drow := d[bi*cols:]
				drow = drow[:cols]
				if xi := xc0[bi]; xi != 0 {
					for j, dv := range drow {
						grow0[j] += xi * dv
					}
				}
				if yi := xc1[bi]; yi != 0 {
					for j, dv := range drow {
						grow1[j] += yi * dv
					}
				}
			}
		}
		for ; i < inW; i++ {
			grow := g.w[i*cols:]
			grow = grow[:cols]
			xcol := inT[i*rows:]
			xcol = xcol[:rows]
			for bi := 0; bi < rows; bi++ {
				xi := xcol[bi]
				if xi == 0 {
					continue
				}
				drow := d[bi*cols:]
				drow = drow[:cols]
				for j, dv := range drow {
					grow[j] += xi * dv
				}
			}
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
		i = 0
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

// forwardRow4 accumulates one output row's contributions from four input
// features, skipping exact zeros term by term in feature order — the scalar
// path's summation order. It is the fallback for rows that fail the dense
// all-nonzero tile check.
//
//maya:hotpath
func forwardRow4(o []float64, x0, x1, x2, x3 float64, r0, r1, r2, r3 []float64) {
	r0 = r0[:len(o)]
	r1 = r1[:len(o)]
	r2 = r2[:len(o)]
	r3 = r3[:len(o)]
	if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
		for j := range o {
			o[j] = o[j] + x0*r0[j] + x1*r1[j] + x2*r2[j] + x3*r3[j]
		}
		return
	}
	if x0 != 0 {
		for j, v := range r0 {
			o[j] += x0 * v
		}
	}
	if x1 != 0 {
		for j, v := range r1 {
			o[j] += x1 * v
		}
	}
	if x2 != 0 {
		for j, v := range r2 {
			o[j] += x2 * v
		}
	}
	if x3 != 0 {
		for j, v := range r3 {
			o[j] += x3 * v
		}
	}
}

// gradRow4 accumulates one weight-gradient row's contributions from four
// batch rows, skipping exact zeros term by term in batch-row order — the
// scalar path's summation order. It is the fallback for gradient rows that
// fail the dense all-nonzero tile check.
//
//maya:hotpath
func gradRow4(grow []float64, x0, x1, x2, x3 float64, d0, d1, d2, d3 []float64) {
	d0 = d0[:len(grow)]
	d1 = d1[:len(grow)]
	d2 = d2[:len(grow)]
	d3 = d3[:len(grow)]
	if x0 != 0 && x1 != 0 && x2 != 0 && x3 != 0 {
		for j := range grow {
			grow[j] = grow[j] + x0*d0[j] + x1*d1[j] + x2*d2[j] + x3*d3[j]
		}
		return
	}
	if x0 != 0 {
		for j, dv := range d0 {
			grow[j] += x0 * dv
		}
	}
	if x1 != 0 {
		for j, dv := range d1 {
			grow[j] += x1 * dv
		}
	}
	if x2 != 0 {
		for j, dv := range d2 {
			grow[j] += x2 * dv
		}
	}
	if x3 != 0 {
		for j, dv := range d3 {
			grow[j] += x3 * dv
		}
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
	rows := evalBatchSize
	if len(examples) < rows {
		rows = len(examples)
	}
	m.predictWithBatch(m.newBatch(rows), examples, visit)
}

// predictWithBatch is predictBatches over a caller-provided batch buffer;
// Train uses it to evaluate validation accuracy each epoch without
// reallocating. Predictions do not depend on the buffer's row capacity —
// rows are independent.
func (m *MLP) predictWithBatch(bb *batch, examples []Example, visit func(i, pred int)) {
	rows := bb.cap
	outW := m.sizes[len(m.sizes)-1]
	logp := bb.acts[len(bb.acts)-1]
	for from := 0; from < len(examples); from += rows {
		n := rows
		if from+n > len(examples) {
			n = len(examples) - from
		}
		bb.loadRange(m, examples, from, n)
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
