// Package opt provides the optimizers and learning-rate schedules used in
// the paper's evaluation: SGD (with momentum and weight decay) for
// ResNet/LSTM and Adam for LeNet-5, plus constant, step-decay, and
// multiplicative-decay schedules (§7.1, §7.8).
package opt

import (
	"fmt"
	"math"

	"apf/internal/nn"
)

// Optimizer updates trainable model parameters from their accumulated
// gradients.
type Optimizer interface {
	// Step applies one update using the current learning rate and then
	// leaves gradients untouched (the training loop zeroes them).
	Step()
	// LR returns the current learning rate.
	LR() float64
	// SetLR overrides the current learning rate (used by schedules).
	SetLR(lr float64)
}

// SGD is stochastic gradient descent with optional momentum and decoupled
// L2 weight decay.
type SGD struct {
	params      []*nn.Param
	lr          float64
	momentum    float64
	weightDecay float64

	velocity [][]float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD constructs an SGD optimizer over params.
func NewSGD(params []*nn.Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, weightDecay: weightDecay}
	if momentum != 0 {
		s.velocity = make([][]float64, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float64, p.Data.Size())
		}
	}
	return s
}

// Step applies one SGD update.
func (s *SGD) Step() {
	for i, p := range s.params {
		if !p.Trainable {
			continue
		}
		data, grad := p.Data.Data, p.Gradient().Data
		for j := range data {
			g := grad[j] + s.weightDecay*data[j]
			if s.velocity != nil {
				v := s.momentum*s.velocity[i][j] + g
				s.velocity[i][j] = v
				g = v
			}
			data[j] -= s.lr * g
		}
	}
}

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// SetLR overrides the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Adam is the Adam optimizer with bias correction and L2 weight decay.
type Adam struct {
	params      []*nn.Param
	lr          float64
	beta1       float64
	beta2       float64
	eps         float64
	weightDecay float64

	step int
	m, v [][]float64
}

var _ Optimizer = (*Adam)(nil)

// NewAdam constructs an Adam optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(params []*nn.Param, lr, weightDecay float64) *Adam {
	a := &Adam{
		params:      params,
		lr:          lr,
		beta1:       0.9,
		beta2:       0.999,
		eps:         1e-8,
		weightDecay: weightDecay,
		m:           make([][]float64, len(params)),
		v:           make([][]float64, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float64, p.Data.Size())
		a.v[i] = make([]float64, p.Data.Size())
	}
	return a
}

// Step applies one Adam update.
func (a *Adam) Step() {
	a.step++
	c1 := 1 - math.Pow(a.beta1, float64(a.step))
	c2 := 1 - math.Pow(a.beta2, float64(a.step))
	for i, p := range a.params {
		if !p.Trainable {
			continue
		}
		data, grad := p.Data.Data, p.Gradient().Data
		for j := range data {
			g := grad[j] + a.weightDecay*data[j]
			a.m[i][j] = a.beta1*a.m[i][j] + (1-a.beta1)*g
			a.v[i][j] = a.beta2*a.v[i][j] + (1-a.beta2)*g*g
			mHat := a.m[i][j] / c1
			vHat := a.v[i][j] / c2
			data[j] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}

// LR returns the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// SetLR overrides the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// Schedule maps an iteration number to a learning rate.
type Schedule interface {
	// LRAt returns the learning rate for (0-based) iteration k.
	LRAt(k int) float64
}

// ConstantSchedule keeps the learning rate fixed.
type ConstantSchedule struct {
	Rate float64
}

var _ Schedule = ConstantSchedule{}

// LRAt returns the fixed rate.
func (c ConstantSchedule) LRAt(int) float64 { return c.Rate }

// MultiplicativeDecay multiplies the base rate by Factor every Every
// iterations, mirroring the paper's "×0.99 every 10 epochs" setup (§7.8).
type MultiplicativeDecay struct {
	Base   float64
	Factor float64
	Every  int
}

var _ Schedule = MultiplicativeDecay{}

// LRAt returns Base·Factor^(k/Every).
func (m MultiplicativeDecay) LRAt(k int) float64 {
	if m.Every <= 0 {
		panic(fmt.Sprintf("opt: MultiplicativeDecay.Every must be positive, got %d", m.Every))
	}
	return m.Base * math.Pow(m.Factor, float64(k/m.Every))
}

// StepDecay divides the base rate by 10 at each listed milestone iteration.
type StepDecay struct {
	Base       float64
	Milestones []int
}

var _ Schedule = StepDecay{}

// LRAt returns the decayed rate for iteration k.
func (s StepDecay) LRAt(k int) float64 {
	lr := s.Base
	for _, m := range s.Milestones {
		if k >= m {
			lr /= 10
		}
	}
	return lr
}
