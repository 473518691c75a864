// Package nn implements the attacker's classifier: a multilayer perceptron
// with ReLU hidden layers and a LogSoftmax output (§VI-A: "a three-layer
// multilayer perceptron (MLP) neural network. The network uses ReLU units
// for its hidden layers and the output layer uses Logsoftmax"), trained
// with minibatch gradient descent on a negative log-likelihood loss.
//
// The implementation is a plain feed-forward network over float64 slices —
// no external dependencies — sized for the one-hot-encoded power windows
// and FFT feature vectors the attacks produce.
package nn

import (
	"fmt"
	"math"

	"github.com/maya-defense/maya/internal/rng"
)

// MLP is a fully connected network: input → hidden... → output, ReLU
// between layers, LogSoftmax on the output.
type MLP struct {
	sizes   []int
	weights []*dense // weights[l]: sizes[l] × sizes[l+1]
	biases  [][]float64
}

// dense is a minimal row-major weight matrix (rows=in, cols=out).
type dense struct {
	rows, cols int
	w          []float64
}

func newDense(rows, cols int) *dense {
	return &dense{rows: rows, cols: cols, w: make([]float64, rows*cols)}
}

// NewMLP builds a network with the given layer sizes, e.g.
// NewMLP(r, 3000, 64, 32, 11) for a three-layer classifier. Weights use
// He initialization (appropriate for ReLU).
func NewMLP(r *rng.Stream, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: non-positive layer size %d", s))
		}
	}
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		w := newDense(sizes[l], sizes[l+1])
		std := math.Sqrt(2 / float64(sizes[l]))
		for i := range w.w {
			w.w[i] = r.NormFloat64() * std
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, sizes[l+1]))
	}
	return m
}

// NumClasses returns the output dimension.
func (m *MLP) NumClasses() int { return m.sizes[len(m.sizes)-1] }

// InputSize returns the input dimension.
func (m *MLP) InputSize() int { return m.sizes[0] }

// NumParams returns the trainable parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.weights {
		n += len(m.weights[l].w) + len(m.biases[l])
	}
	return n
}

// forwardInto computes all layer activations, writing into acts (allocated
// by the caller via newActs). acts[0] is the input; acts[L] holds the
// log-probabilities.
func (m *MLP) forward(x []float64, acts [][]float64) {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d want %d", len(x), m.sizes[0]))
	}
	copy(acts[0], x)
	last := len(m.weights) - 1
	for l, w := range m.weights {
		in, out := acts[l], acts[l+1]
		b := m.biases[l]
		for j := 0; j < w.cols; j++ {
			out[j] = b[j]
		}
		for i := 0; i < w.rows; i++ {
			xi := in[i]
			if xi == 0 {
				continue // one-hot inputs are mostly zero
			}
			row := w.w[i*w.cols : (i+1)*w.cols]
			for j, wv := range row {
				out[j] += xi * wv
			}
		}
		if l != last {
			for j := range out {
				if out[j] < 0 {
					out[j] = 0 // ReLU
				}
			}
		}
	}
	logSoftmax(acts[len(acts)-1])
}

// logSoftmax converts logits to log-probabilities in place.
func logSoftmax(z []float64) {
	max := z[0]
	for _, v := range z {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for _, v := range z {
		sum += math.Exp(v - max)
	}
	lse := max + math.Log(sum)
	for i := range z {
		z[i] -= lse
	}
}

func (m *MLP) newActs() [][]float64 {
	acts := make([][]float64, len(m.sizes))
	for i, s := range m.sizes {
		acts[i] = make([]float64, s)
	}
	return acts
}

// Predict returns the most likely class for x.
func (m *MLP) Predict(x []float64) int {
	acts := m.newActs()
	m.forward(x, acts)
	logp := acts[len(acts)-1]
	best := 0
	for i, v := range logp {
		if v > logp[best] {
			best = i
		}
	}
	return best
}

// LogProbs returns the log-probability vector for x.
func (m *MLP) LogProbs(x []float64) []float64 {
	acts := m.newActs()
	m.forward(x, acts)
	out := make([]float64, m.NumClasses())
	copy(out, acts[len(acts)-1])
	return out
}
