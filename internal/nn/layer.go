// Package nn is a from-scratch neural-network substrate with layer-level
// backpropagation. It replaces the PyTorch framework used by the APF paper:
// the federated-learning engine and the APF manager operate on the flat
// parameter vector exposed by this package (see vectorize.go), exactly as
// the paper's APF_Manager operates on the flattened PyTorch model.
//
// Layers cache activations on Forward and consume them on Backward, so a
// layer instance must not be shared across concurrent training loops. In
// the FL simulator every client owns a private model replica.
//
// Workspaces. The layers on the training hot path (Conv2D, Dense, ReLU,
// Tanh, MaxPool2D, Flatten, SoftmaxCrossEntropy) own their outputs and their
// backward scratch and reuse them while shapes repeat, so a steady-state
// training step allocates nothing. The contract: a tensor a layer returns
// is valid until that layer's next call of the same method, and a layer
// never writes into a tensor it received. A caller that keeps a result
// across such a call copies it (Clone). Conv2D alone reuses its output's
// storage in Backward, so its output is valid until its next Forward or
// Backward.
package nn

import "apf/internal/tensor"

// ensure returns t when it already has the given shape, and otherwise a new
// zero tensor of that shape: one workspace reused while shapes repeat. A
// reused tensor holds whatever its last use left there.
func ensure(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if t != nil && sameDims(t.Shape, shape) {
		return t
	}
	// A copy, so that shape itself does not escape: callers' variadic
	// arguments then stay on the stack.
	return tensor.New(append([]int(nil), shape...)...)
}

// view returns hdr re-pointed at data with the given shape, building a new
// header only when the shape changes; len(data) must equal the shape's
// element count.
func view(hdr *tensor.Tensor, data []float64, shape ...int) *tensor.Tensor {
	if hdr == nil || !sameDims(hdr.Shape, shape) {
		return tensor.FromSlice(data, append([]int(nil), shape...)...)
	}
	hdr.Data = data
	return hdr
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, d := range a {
		if d != b[i] {
			return false
		}
	}
	return true
}

// paramsBackwarder is a layer that can accumulate its parameter gradients
// without computing its input gradient. Network.LossGrad uses it on the
// lowest layer with parameters, whose input gradient nobody reads.
type paramsBackwarder interface {
	backwardParams(grad *tensor.Tensor)
}

// Param is a single learnable (or tracked) tensor of a model, together with
// its gradient accumulator.
type Param struct {
	// Name identifies the tensor (e.g. "conv1.w", "fc2.b"), mirroring the
	// per-tensor buckets of the paper's Fig. 3.
	Name string
	// Data holds the current value.
	Data *tensor.Tensor
	// Grad holds the gradient accumulator's storage. ZeroGrads does not
	// clear it: it marks it zero, and the zeros are written by the first
	// access through Gradient, which every reader and accumulator uses
	// (the layers' backward passes, FlattenGrads, the optimizers,
	// GradCheck). Only Dense's weight gradient skips them: its product is
	// written straight over a marked Grad. So after ZeroGrads, Grad itself
	// may hold the previous step's values; read it through Gradient.
	Grad *tensor.Tensor
	// Trainable is false for tracked statistics (batch-norm running
	// mean/var) that are synchronized and freezable like parameters but
	// never updated by the optimizer.
	Trainable bool

	// gradZero is ZeroGrads' mark: Grad stands for all zeros, whatever
	// it holds.
	gradZero bool
}

// Gradient returns the gradient accumulator, first writing the zeros a
// ZeroGrads mark stands for. Backward adds into it, and an optimizer reads
// it.
func (p *Param) Gradient() *tensor.Tensor {
	if p.gradZero {
		p.Grad.Zero()
		p.gradZero = false
	}
	return p.Grad
}

// newParam allocates a named trainable parameter of the given shape.
func newParam(name string, shape ...int) *Param {
	return &Param{
		Name:      name,
		Data:      tensor.New(shape...),
		Grad:      tensor.New(shape...),
		Trainable: true,
	}
}

// newBuffer allocates a named non-trainable tracked tensor.
func newBuffer(name string, shape ...int) *Param {
	p := newParam(name, shape...)
	p.Trainable = false
	return p
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output. train selects training-time
	// behaviour (dropout masks, batch-norm batch statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient of the loss with respect to the
	// layer's last Forward output and returns the gradient with respect
	// to its input, accumulating parameter gradients into Params().
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameters (possibly empty). The slice
	// and its entries are stable across calls.
	Params() []*Param
}

// ZeroGrads zeroes the gradient of every parameter. It only marks each
// one zero (see Param.Grad): a step whose backward pass overwrites a
// gradient never pays for clearing it.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.gradZero = true
	}
}
