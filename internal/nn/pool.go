package nn

import (
	"fmt"
	"math"

	"apf/internal/tensor"
)

// MaxPool2D performs non-overlapping-or-strided max pooling over
// [N, C, H, W] inputs with a square window.
type MaxPool2D struct {
	k, stride int

	lastShape []int
	argmax    []int // flat input index of each output element's maximum
	out, dx   *tensor.Tensor
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a max-pooling layer with window k and the given
// stride (use stride == k for classic non-overlapping pooling).
func NewMaxPool2D(k, stride int) *MaxPool2D {
	if k <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: invalid MaxPool2D geometry k=%d stride=%d", k, stride))
	}
	return &MaxPool2D{k: k, stride: stride}
}

// Forward pools x of shape [N, C, H, W].
func (p *MaxPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects rank-4 input, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.k)/p.stride + 1
	ow := (w-p.k)/p.stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %v too small for k=%d stride=%d", x.Shape, p.k, p.stride))
	}
	p.out = ensure(p.out, n, c, oh, ow)
	p.lastShape = x.Shape
	if len(p.argmax) != p.out.Size() {
		p.argmax = make([]int, p.out.Size())
	}

	xd, od := x.Data, p.out.Data
	oi := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			plane := (in*c + ic) * h * w
			for oy := 0; oy < oh; oy++ {
				iy0 := oy * p.stride
				for ox := 0; ox < ow; ox++ {
					ix0 := ox * p.stride
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < p.k; ky++ {
						row := plane + (iy0+ky)*w + ix0
						for kx := 0; kx < p.k; kx++ {
							if v := xd[row+kx]; v > best {
								best = v
								bestIdx = row + kx
							}
						}
					}
					od[oi] = best
					p.argmax[oi] = bestIdx
					oi++
				}
			}
		}
	}
	return p.out
}

// Backward routes each output gradient to the input position that won the
// max in Forward.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.argmax == nil {
		panic("nn: MaxPool2D.Backward called before Forward")
	}
	p.dx = ensure(p.dx, p.lastShape...)
	dx := p.dx.Data
	clear(dx)
	for oi, idx := range p.argmax {
		dx[idx] += grad.Data[oi]
	}
	return p.dx
}

// Params returns nil: pooling has no parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// AvgPool2D performs windowed average pooling over [N, C, H, W] inputs
// (the pooling used by the original LeNet-5).
type AvgPool2D struct {
	k, stride int
	lastShape []int
}

var _ Layer = (*AvgPool2D)(nil)

// NewAvgPool2D constructs an average-pooling layer with window k and the
// given stride.
func NewAvgPool2D(k, stride int) *AvgPool2D {
	if k <= 0 || stride <= 0 {
		panic(fmt.Sprintf("nn: invalid AvgPool2D geometry k=%d stride=%d", k, stride))
	}
	return &AvgPool2D{k: k, stride: stride}
}

// Forward pools x of shape [N, C, H, W].
func (p *AvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: AvgPool2D expects rank-4 input, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh := (h-p.k)/p.stride + 1
	ow := (w-p.k)/p.stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: AvgPool2D input %v too small for k=%d stride=%d", x.Shape, p.k, p.stride))
	}
	p.lastShape = x.Shape
	out := tensor.New(n, c, oh, ow)
	inv := 1.0 / float64(p.k*p.k)
	oi := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			plane := x.Data[(in*c+ic)*h*w:]
			for oy := 0; oy < oh; oy++ {
				iy0 := oy * p.stride
				for ox := 0; ox < ow; ox++ {
					ix0 := ox * p.stride
					s := 0.0
					for ky := 0; ky < p.k; ky++ {
						row := plane[(iy0+ky)*w+ix0:]
						for kx := 0; kx < p.k; kx++ {
							s += row[kx]
						}
					}
					out.Data[oi] = s * inv
					oi++
				}
			}
		}
	}
	return out
}

// Backward spreads each output gradient uniformly over its window.
func (p *AvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastShape == nil {
		panic("nn: AvgPool2D.Backward called before Forward")
	}
	n, c, h, w := p.lastShape[0], p.lastShape[1], p.lastShape[2], p.lastShape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	dx := tensor.New(p.lastShape...)
	inv := 1.0 / float64(p.k*p.k)
	gi := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			plane := dx.Data[(in*c+ic)*h*w:]
			for oy := 0; oy < oh; oy++ {
				iy0 := oy * p.stride
				for ox := 0; ox < ow; ox++ {
					ix0 := ox * p.stride
					g := grad.Data[gi] * inv
					gi++
					for ky := 0; ky < p.k; ky++ {
						row := plane[(iy0+ky)*w+ix0:]
						for kx := 0; kx < p.k; kx++ {
							row[kx] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (p *AvgPool2D) Params() []*Param { return nil }

// GlobalAvgPool2D averages each channel plane: [N, C, H, W] → [N, C].
type GlobalAvgPool2D struct {
	lastShape []int
}

var _ Layer = (*GlobalAvgPool2D)(nil)

// NewGlobalAvgPool2D constructs a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward averages over the spatial dimensions.
func (p *GlobalAvgPool2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool2D expects rank-4 input, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	p.lastShape = x.Shape
	out := tensor.New(n, c)
	plane := h * w
	inv := 1.0 / float64(plane)
	for i := 0; i < n*c; i++ {
		s := 0.0
		seg := x.Data[i*plane : (i+1)*plane]
		for _, v := range seg {
			s += v
		}
		out.Data[i] = s * inv
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (p *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastShape == nil {
		panic("nn: GlobalAvgPool2D.Backward called before Forward")
	}
	n, c, h, w := p.lastShape[0], p.lastShape[1], p.lastShape[2], p.lastShape[3]
	dx := tensor.New(p.lastShape...)
	plane := h * w
	inv := 1.0 / float64(plane)
	for i := 0; i < n*c; i++ {
		g := grad.Data[i] * inv
		seg := dx.Data[i*plane : (i+1)*plane]
		for j := range seg {
			seg[j] = g
		}
	}
	return dx
}

// Params returns nil: pooling has no parameters.
func (p *GlobalAvgPool2D) Params() []*Param { return nil }
