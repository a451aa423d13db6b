package nn

import (
	"fmt"
	"math/rand"

	"apf/internal/tensor"
)

// Flatten reshapes [N, ...] inputs to [N, rest] matrices.
type Flatten struct {
	lastShape []int
	out, dx   *tensor.Tensor // views of the input and of the gradient
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all trailing dimensions into one.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: Flatten expects rank ≥ 2 input, got %v", x.Shape))
	}
	f.lastShape = x.Shape
	rest := 1
	for _, d := range x.Shape[1:] {
		rest *= d
	}
	f.out = view(f.out, x.Data, x.Shape[0], rest)
	return f.out
}

// Backward restores the original input shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		panic("nn: Flatten.Backward called before Forward")
	}
	f.dx = view(f.dx, grad.Data, f.lastShape...)
	return f.dx
}

// Params returns nil: flattening has no parameters.
func (f *Flatten) Params() []*Param { return nil }

// Dropout zeroes activations with probability p at training time and
// rescales survivors by 1/(1-p) (inverted dropout); it is the identity at
// evaluation time.
type Dropout struct {
	p   float64
	rng *rand.Rand

	mask []bool
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with drop probability p in [0, 1).
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: invalid dropout probability %v", p))
	}
	return &Dropout{p: p, rng: rng}
}

// Forward applies the dropout mask when train is true.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.p == 0 {
		d.mask = nil
		return x
	}
	out := tensor.New(x.Shape...)
	d.mask = make([]bool, x.Size())
	scale := 1.0 / (1.0 - d.p)
	for i, v := range x.Data {
		if d.rng.Float64() >= d.p {
			d.mask[i] = true
			out.Data[i] = v * scale
		}
	}
	return out
}

// Backward applies the same mask and scaling to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	dx := tensor.New(grad.Shape...)
	scale := 1.0 / (1.0 - d.p)
	for i, keep := range d.mask {
		if keep {
			dx.Data[i] = grad.Data[i] * scale
		}
	}
	return dx
}

// Params returns nil: dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	layers []Layer
	params []*Param
	lowest int // index of the first layer with parameters, -1 if none
}

var _ Layer = (*Sequential)(nil)

// NewSequential composes the given layers.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{layers: layers, lowest: -1}
	for i, l := range layers {
		if s.lowest < 0 && len(l.Params()) > 0 {
			s.lowest = i
		}
		s.params = append(s.params, l.Params()...)
	}
	return s
}

// Forward runs the layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// backwardParams accumulates every parameter gradient without computing
// the stack's input gradient: it stops at the lowest layer with parameters
// and runs that layer's own backwardParams when it has one.
func (s *Sequential) backwardParams(grad *tensor.Tensor) {
	for i := len(s.layers) - 1; i > s.lowest; i-- {
		grad = s.layers[i].Backward(grad)
	}
	if s.lowest < 0 {
		return
	}
	if l, ok := s.layers[s.lowest].(paramsBackwarder); ok {
		l.backwardParams(grad)
	} else {
		s.layers[s.lowest].Backward(grad)
	}
}

// Params returns the concatenated parameters of all layers in order.
func (s *Sequential) Params() []*Param { return s.params }

// Layers exposes the composed layers (read-only use).
func (s *Sequential) Layers() []Layer { return s.layers }

// LastStep selects the final time step of a sequence tensor:
// [N, T, H] → [N, H]. It is used to read out the last hidden state of an
// LSTM stack for classification.
type LastStep struct {
	lastShape []int
}

var _ Layer = (*LastStep)(nil)

// NewLastStep constructs a last-time-step selection layer.
func NewLastStep() *LastStep { return &LastStep{} }

// Forward extracts x[:, T-1, :].
func (l *LastStep) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("nn: LastStep expects [N, T, H] input, got %v", x.Shape))
	}
	n, t, h := x.Shape[0], x.Shape[1], x.Shape[2]
	l.lastShape = x.Shape
	out := tensor.New(n, h)
	for i := 0; i < n; i++ {
		copy(out.Data[i*h:(i+1)*h], x.Data[(i*t+t-1)*h:(i*t+t)*h])
	}
	return out
}

// Backward scatters the gradient back into the final time step.
func (l *LastStep) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastShape == nil {
		panic("nn: LastStep.Backward called before Forward")
	}
	n, t, h := l.lastShape[0], l.lastShape[1], l.lastShape[2]
	dx := tensor.New(l.lastShape...)
	for i := 0; i < n; i++ {
		copy(dx.Data[(i*t+t-1)*h:(i*t+t)*h], grad.Data[i*h:(i+1)*h])
	}
	return dx
}

// Params returns nil: the selection has no parameters.
func (l *LastStep) Params() []*Param { return nil }
