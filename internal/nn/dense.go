package nn

import (
	"fmt"
	"math/rand"

	"apf/internal/tensor"
)

// Dense is a fully connected layer: y = x·W + b with x of shape [N, in].
type Dense struct {
	w, b *Param

	lastInput *tensor.Tensor
	out, dx   *tensor.Tensor
	dw        *tensor.Tensor // the batch's weight-gradient product, when Grad holds a sum already
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a dense layer with Xavier-uniform weights. name
// prefixes the parameter names ("<name>.w", "<name>.b").
func NewDense(rng *rand.Rand, name string, in, out int) *Dense {
	d := &Dense{
		w: newParam(name+".w", in, out),
		b: newParam(name+".b", out),
	}
	xavierUniform(rng, d.w.Data, in, out)
	return d
}

// Forward computes x·W + b for x of shape [N, in].
func (d *Dense) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Shape[1] != d.w.Data.Shape[0] {
		panic(fmt.Sprintf("nn: Dense expects [N, %d] input, got %v", d.w.Data.Shape[0], x.Shape))
	}
	d.lastInput = x
	n, m := x.Shape[0], d.w.Data.Shape[1]
	d.out = ensure(d.out, n, m)
	tensor.MatMulInto(d.out, x, d.w.Data)
	for i := 0; i < n; i++ {
		row := d.out.Data[i*m : (i+1)*m]
		for j := range row {
			row[j] += d.b.Data.Data[j]
		}
	}
	return d.out
}

// Backward accumulates dW = xᵀ·dy and db = Σ_rows dy, and returns dx = dy·Wᵀ.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	d.dx = ensure(d.dx, d.lastInput.Shape...)
	tensor.MatMulTransBInto(d.dx, grad, d.w.Data)
	return d.dx
}

// backwardParams accumulates dW and db only.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	x := d.lastInput
	if x == nil {
		panic("nn: Dense.Backward called before Forward")
	}
	if d.w.gradZero {
		// The usual case, right after ZeroGrads: the product is written
		// straight over the marked gradient, which the kernel clears row
		// by row as it goes. Neither a 1024×256 layer's 2 MB clear nor its
		// 2 MB scratch is needed.
		tensor.MatMulTransAInto(d.w.Grad, x, grad)
		d.w.gradZero = false
	} else {
		d.dw = ensure(d.dw, d.w.Data.Shape...)
		tensor.MatMulTransAInto(d.dw, x, grad)
		d.w.Grad.AddAssign(d.dw)
	}
	db := d.b.Gradient().Data
	n, m := grad.Shape[0], grad.Shape[1]
	for i := 0; i < n; i++ {
		row := grad.Data[i*m : (i+1)*m]
		for j := range row {
			db[j] += row[j]
		}
	}
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }
