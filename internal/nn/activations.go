package nn

import (
	"math"
	"math/bits"

	"apf/internal/tensor"
)

// ReLU is the rectified linear activation, applied elementwise.
type ReLU struct {
	lastInput *tensor.Tensor
	out, dx   *tensor.Tensor
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// positive is all ones when the float64 with bits b is > 0 and zero
// otherwise, −0 and NaN included. It is computed without a data-dependent
// branch, which the sign of fresh activations would mispredict half the
// time: v > 0 exactly when b, as an unsigned integer, lies in (0, +Inf].
func positive(b uint64) uint64 {
	const posInf = 0x7FF0000000000000
	_, borrow := bits.Sub64(b-1, posInf, 0)
	return -borrow
}

// Forward computes max(0, x), as +0 wherever x is not > 0.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	r.lastInput = x
	r.out = ensure(r.out, x.Shape...)
	out := r.out.Data[:len(x.Data)]
	for i, v := range x.Data {
		b := math.Float64bits(v)
		out[i] = math.Float64frombits(b & positive(b))
	}
	return r.out
}

// Backward passes gradient where the input was positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.lastInput == nil {
		panic("nn: ReLU.Backward called before Forward")
	}
	r.dx = ensure(r.dx, grad.Shape...)
	dx, g := r.dx.Data[:len(r.lastInput.Data)], grad.Data[:len(r.lastInput.Data)]
	for i, v := range r.lastInput.Data {
		dx[i] = math.Float64frombits(math.Float64bits(g[i]) & positive(math.Float64bits(v)))
	}
	return r.dx
}

// Params returns nil: activations have no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation, applied elementwise.
type Tanh struct {
	lastOutput *tensor.Tensor
	dx         *tensor.Tensor
}

var _ Layer = (*Tanh)(nil)

// NewTanh constructs a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward computes tanh(x).
func (t *Tanh) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	t.lastOutput = ensure(t.lastOutput, x.Shape...)
	out := t.lastOutput.Data[:len(x.Data)]
	for i, v := range x.Data {
		out[i] = math.Tanh(v)
	}
	return t.lastOutput
}

// Backward computes grad·(1 - tanh²).
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if t.lastOutput == nil {
		panic("nn: Tanh.Backward called before Forward")
	}
	t.dx = ensure(t.dx, grad.Shape...)
	dx, g := t.dx.Data[:len(t.lastOutput.Data)], grad.Data[:len(t.lastOutput.Data)]
	for i, y := range t.lastOutput.Data {
		dx[i] = g[i] * (1 - y*y)
	}
	return t.dx
}

// Params returns nil: activations have no parameters.
func (t *Tanh) Params() []*Param { return nil }

// Sigmoid is the logistic activation, applied elementwise.
type Sigmoid struct {
	lastOutput *tensor.Tensor
}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid constructs a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward computes 1/(1+e^-x).
func (s *Sigmoid) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = sigmoid(v)
	}
	s.lastOutput = out
	return out
}

// Backward computes grad·σ·(1-σ).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if s.lastOutput == nil {
		panic("nn: Sigmoid.Backward called before Forward")
	}
	dx := tensor.New(grad.Shape...)
	for i, y := range s.lastOutput.Data {
		dx.Data[i] = grad.Data[i] * y * (1 - y)
	}
	return dx
}

// Params returns nil: activations have no parameters.
func (s *Sigmoid) Params() []*Param { return nil }

// sigmoid is the scalar logistic function, computed in a numerically stable
// split form.
func sigmoid(v float64) float64 {
	if v >= 0 {
		return 1.0 / (1.0 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1.0 + e)
}
