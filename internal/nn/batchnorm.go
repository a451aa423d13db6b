package nn

import (
	"fmt"
	"math"

	"apf/internal/tensor"
)

// BatchNorm2D normalizes each channel of [N, C, H, W] activations over the
// batch and spatial dimensions, with learned scale (gamma) and shift (beta)
// and tracked running statistics for evaluation.
//
// The running mean/variance are exposed as non-trainable Params so that the
// federated engine synchronizes (and APF may freeze) them together with the
// learned parameters, mirroring how full model state is exchanged in the
// paper's FL setup.
type BatchNorm2D struct {
	c        int
	eps      float64
	momentum float64

	gamma, beta          *Param
	runMean, runVar      *Param
	lastInput, lastXHat  *tensor.Tensor
	lastInvStd, lastMean []float64
}

var _ Layer = (*BatchNorm2D)(nil)

// NewBatchNorm2D constructs a batch-normalization layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	b := &BatchNorm2D{
		c:        c,
		eps:      1e-5,
		momentum: 0.1,
		gamma:    newParam(name+".gamma", c),
		beta:     newParam(name+".beta", c),
		runMean:  newBuffer(name+".running_mean", c),
		runVar:   newBuffer(name+".running_var", c),
	}
	b.gamma.Data.Fill(1)
	b.runVar.Data.Fill(1)
	return b
}

// Forward normalizes x. In training mode batch statistics are used and the
// running statistics updated; in evaluation mode the running statistics are
// used and no state is cached (Backward is only valid after a training-mode
// Forward).
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != b.c {
		panic(fmt.Sprintf("nn: BatchNorm2D expects [N, %d, H, W] input, got %v", b.c, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	plane := h * w
	m := n * plane // samples per channel
	out := tensor.New(x.Shape...)

	if !train {
		b.lastInput, b.lastXHat = nil, nil
		for ic := 0; ic < b.c; ic++ {
			invStd := 1.0 / math.Sqrt(b.runVar.Data.Data[ic]+b.eps)
			g, bb, mu := b.gamma.Data.Data[ic], b.beta.Data.Data[ic], b.runMean.Data.Data[ic]
			for in := 0; in < n; in++ {
				base := (in*b.c + ic) * plane
				for i := 0; i < plane; i++ {
					out.Data[base+i] = g*(x.Data[base+i]-mu)*invStd + bb
				}
			}
		}
		return out
	}

	b.lastInput = x
	b.lastXHat = tensor.New(x.Shape...)
	b.lastMean = make([]float64, b.c)
	b.lastInvStd = make([]float64, b.c)
	for ic := 0; ic < b.c; ic++ {
		sum := 0.0
		for in := 0; in < n; in++ {
			base := (in*b.c + ic) * plane
			for i := 0; i < plane; i++ {
				sum += x.Data[base+i]
			}
		}
		mu := sum / float64(m)
		varSum := 0.0
		for in := 0; in < n; in++ {
			base := (in*b.c + ic) * plane
			for i := 0; i < plane; i++ {
				d := x.Data[base+i] - mu
				varSum += d * d
			}
		}
		variance := varSum / float64(m)
		invStd := 1.0 / math.Sqrt(variance+b.eps)
		b.lastMean[ic] = mu
		b.lastInvStd[ic] = invStd

		g, bb := b.gamma.Data.Data[ic], b.beta.Data.Data[ic]
		for in := 0; in < n; in++ {
			base := (in*b.c + ic) * plane
			for i := 0; i < plane; i++ {
				xh := (x.Data[base+i] - mu) * invStd
				b.lastXHat.Data[base+i] = xh
				out.Data[base+i] = g*xh + bb
			}
		}

		b.runMean.Data.Data[ic] = (1-b.momentum)*b.runMean.Data.Data[ic] + b.momentum*mu
		b.runVar.Data.Data[ic] = (1-b.momentum)*b.runVar.Data.Data[ic] + b.momentum*variance
	}
	return out
}

// Backward implements the standard batch-norm gradient for training-mode
// statistics.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic("nn: BatchNorm2D.Backward requires a training-mode Forward")
	}
	x := b.lastInput
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	plane := h * w
	m := float64(n * plane)
	dx := tensor.New(x.Shape...)
	dgamma, dbeta := b.gamma.Gradient().Data, b.beta.Gradient().Data

	for ic := 0; ic < b.c; ic++ {
		g := b.gamma.Data.Data[ic]
		invStd := b.lastInvStd[ic]

		sumDy, sumDyXHat := 0.0, 0.0
		for in := 0; in < n; in++ {
			base := (in*b.c + ic) * plane
			for i := 0; i < plane; i++ {
				dy := grad.Data[base+i]
				sumDy += dy
				sumDyXHat += dy * b.lastXHat.Data[base+i]
			}
		}
		dbeta[ic] += sumDy
		dgamma[ic] += sumDyXHat

		for in := 0; in < n; in++ {
			base := (in*b.c + ic) * plane
			for i := 0; i < plane; i++ {
				dy := grad.Data[base+i]
				xh := b.lastXHat.Data[base+i]
				dx.Data[base+i] = g * invStd / m * (m*dy - sumDy - xh*sumDyXHat)
			}
		}
	}
	return dx
}

// Params returns gamma, beta and the tracked running statistics.
func (b *BatchNorm2D) Params() []*Param {
	return []*Param{b.gamma, b.beta, b.runMean, b.runVar}
}
