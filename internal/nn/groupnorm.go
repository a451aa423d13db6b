package nn

import (
	"fmt"
	"math"

	"apf/internal/tensor"
)

// GroupNorm2D normalizes each sample's channel groups over (channels/groups
// × H × W) elements, with per-channel scale and shift. Unlike batch
// normalization it has no cross-sample coupling and no running statistics,
// which makes it the standard normalization choice for federated learning
// on non-IID data (batch statistics differ wildly across clients; group
// statistics are per-sample and therefore unbiased under any split).
type GroupNorm2D struct {
	c, groups int
	eps       float64

	gamma, beta *Param

	lastXHat   *tensor.Tensor
	lastInvStd []float64 // per (sample, group)
}

var _ Layer = (*GroupNorm2D)(nil)

// NewGroupNorm2D constructs a group-normalization layer over c channels in
// the given number of groups (which must divide c).
func NewGroupNorm2D(name string, c, groups int) *GroupNorm2D {
	if groups <= 0 || c%groups != 0 {
		panic(fmt.Sprintf("nn: GroupNorm2D groups %d must divide channels %d", groups, c))
	}
	g := &GroupNorm2D{
		c:      c,
		groups: groups,
		eps:    1e-5,
		gamma:  newParam(name+".gamma", c),
		beta:   newParam(name+".beta", c),
	}
	g.gamma.Data.Fill(1)
	return g
}

// Forward normalizes x of shape [N, C, H, W].
func (g *GroupNorm2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != g.c {
		panic(fmt.Sprintf("nn: GroupNorm2D expects [N, %d, H, W] input, got %v", g.c, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	plane := h * w
	chPerGroup := g.c / g.groups
	m := chPerGroup * plane

	out := tensor.New(x.Shape...)
	g.lastXHat = tensor.New(x.Shape...)
	g.lastInvStd = make([]float64, n*g.groups)

	for in := 0; in < n; in++ {
		for gr := 0; gr < g.groups; gr++ {
			base := (in*g.c + gr*chPerGroup) * plane
			seg := x.Data[base : base+m]
			mean := 0.0
			for _, v := range seg {
				mean += v
			}
			mean /= float64(m)
			variance := 0.0
			for _, v := range seg {
				variance += (v - mean) * (v - mean)
			}
			variance /= float64(m)
			invStd := 1.0 / math.Sqrt(variance+g.eps)
			g.lastInvStd[in*g.groups+gr] = invStd

			for ci := 0; ci < chPerGroup; ci++ {
				ch := gr*chPerGroup + ci
				gm, bt := g.gamma.Data.Data[ch], g.beta.Data.Data[ch]
				off := base + ci*plane
				for i := 0; i < plane; i++ {
					xh := (x.Data[off+i] - mean) * invStd
					g.lastXHat.Data[off+i] = xh
					out.Data[off+i] = gm*xh + bt
				}
			}
		}
	}
	return out
}

// Backward implements the standard group-norm gradient.
func (g *GroupNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.lastXHat == nil {
		panic("nn: GroupNorm2D.Backward called before Forward")
	}
	n, h, w := grad.Shape[0], grad.Shape[2], grad.Shape[3]
	plane := h * w
	chPerGroup := g.c / g.groups
	m := float64(chPerGroup * plane)
	dx := tensor.New(grad.Shape...)
	dgamma, dbeta := g.gamma.Gradient().Data, g.beta.Gradient().Data

	for in := 0; in < n; in++ {
		for gr := 0; gr < g.groups; gr++ {
			base := (in*g.c + gr*chPerGroup) * plane
			invStd := g.lastInvStd[in*g.groups+gr]

			// Accumulate per-group sums of dxhat and dxhat·xhat, plus the
			// per-channel parameter gradients.
			sumDxh, sumDxhXh := 0.0, 0.0
			for ci := 0; ci < chPerGroup; ci++ {
				ch := gr*chPerGroup + ci
				gm := g.gamma.Data.Data[ch]
				off := base + ci*plane
				for i := 0; i < plane; i++ {
					dy := grad.Data[off+i]
					xh := g.lastXHat.Data[off+i]
					dbeta[ch] += dy
					dgamma[ch] += dy * xh
					dxh := dy * gm
					sumDxh += dxh
					sumDxhXh += dxh * xh
				}
			}
			for ci := 0; ci < chPerGroup; ci++ {
				ch := gr*chPerGroup + ci
				gm := g.gamma.Data.Data[ch]
				off := base + ci*plane
				for i := 0; i < plane; i++ {
					dxh := grad.Data[off+i] * gm
					xh := g.lastXHat.Data[off+i]
					dx.Data[off+i] = invStd / m * (m*dxh - sumDxh - xh*sumDxhXh)
				}
			}
		}
	}
	return dx
}

// Params returns gamma and beta.
func (g *GroupNorm2D) Params() []*Param { return []*Param{g.gamma, g.beta} }
