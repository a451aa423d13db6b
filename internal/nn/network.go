package nn

import "apf/internal/tensor"

// Network bundles a feed-forward layer stack with a classification loss.
// It is the unit the federated engine replicates per client.
type Network struct {
	layers *Sequential
	loss   *SoftmaxCrossEntropy
}

// NewNetwork wraps layers with a softmax-cross-entropy head.
func NewNetwork(layers ...Layer) *Network {
	return &Network{layers: NewSequential(layers...), loss: NewSoftmaxCrossEntropy()}
}

// Params returns the network parameters in flat-vector order.
func (n *Network) Params() []*Param { return n.layers.Params() }

// Forward computes logits for x.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.layers.Forward(x, train)
}

// LossGrad runs a full forward/backward pass on one batch, accumulating
// parameter gradients (call ZeroGrads first for a fresh step). It returns
// the batch loss and the batch accuracy. The input gradient nobody reads
// is not computed: backward stops at the lowest layer with parameters.
func (n *Network) LossGrad(x *tensor.Tensor, labels []int) (loss, acc float64) {
	logits := n.layers.Forward(x, true)
	loss = n.loss.Forward(logits, labels)
	acc = Accuracy(logits, labels)
	n.layers.backwardParams(n.loss.Backward())
	return loss, acc
}

// Eval computes the mean loss and accuracy over a batch without touching
// gradients or training-time behaviour.
func (n *Network) Eval(x *tensor.Tensor, labels []int) (loss, acc float64) {
	logits := n.layers.Forward(x, false)
	loss = n.loss.Forward(logits, labels)
	return loss, Accuracy(logits, labels)
}
