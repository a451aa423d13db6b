package nn

import (
	"fmt"
	"math"

	"apf/internal/tensor"
)

// SoftmaxCrossEntropy is the fused softmax + cross-entropy classification
// loss over [N, C] logits and integer labels.
type SoftmaxCrossEntropy struct {
	lastProbs  *tensor.Tensor
	lastLabels []int
	grad       *tensor.Tensor
}

// NewSoftmaxCrossEntropy constructs the loss.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward returns the mean cross-entropy over the batch.
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: loss expects [N, C] logits, got %v", logits.Shape))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	l.lastProbs = ensure(l.lastProbs, n, c)
	probs := l.lastProbs
	loss := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		sum := 0.0
		prow := probs.Data[i*c : (i+1)*c]
		for j, v := range row {
			e := math.Exp(v - maxv)
			prow[j] = e
			sum += e
		}
		for j := range prow {
			prow[j] /= sum
		}
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0, %d)", y, c))
		}
		// Clamp to avoid -Inf on (numerically) zero probability.
		p := prow[y]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	l.lastLabels = labels
	return loss / float64(n)
}

// Backward returns dL/dlogits = (softmax - onehot)/N for the last Forward.
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	if l.lastProbs == nil {
		panic("nn: loss Backward called before Forward")
	}
	n, c := l.lastProbs.Shape[0], l.lastProbs.Shape[1]
	l.grad = ensure(l.grad, n, c)
	grad := l.grad
	copy(grad.Data, l.lastProbs.Data)
	inv := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		row := grad.Data[i*c : (i+1)*c]
		row[l.lastLabels[i]] -= 1
		for j := range row {
			row[j] *= inv
		}
	}
	return grad
}

// Accuracy returns the fraction of rows of logits whose argmax (the lowest
// index on ties) equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: Accuracy expects [N, C] logits, got %v", logits.Shape))
	}
	n, c := logits.Shape[0], logits.Shape[1]
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		best := 0
		for j := 1; j < c; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
