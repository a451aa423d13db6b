package nn

import (
	"fmt"
	"math"
	"math/rand"

	"apf/internal/tensor"
)

// LSTM is a single recurrent layer processing [N, T, F] sequences into
// [N, T, H] hidden-state sequences, with full backpropagation through time.
// Stack two instances (plus a LastStep readout) to obtain the paper's
// 2-layer hidden-size-64 KWS network.
//
// Gate layout in the fused projection is [input, forget, cell, output],
// each of width H.
type LSTM struct {
	in, hidden int

	wx *Param // [F, 4H] input projection
	wh *Param // [H, 4H] recurrent projection
	b  *Param // [4H]

	// Per-step caches for BPTT, valid between Forward and Backward.
	steps      int
	xs         []*tensor.Tensor // inputs, [N, F]
	hs         []*tensor.Tensor // hidden states, [N, H]
	cs         []*tensor.Tensor // cell states, [N, H]
	gates      []*tensor.Tensor // post-activation gates, [N, 4H]
	tanhCs     []*tensor.Tensor // tanh of cell state, [N, H]
	lastBatchN int
}

var _ Layer = (*LSTM)(nil)

// NewLSTM constructs an LSTM layer mapping feature size in to hidden size
// hidden. The forget-gate bias is initialized to 1 (standard practice to
// ease early gradient flow).
func NewLSTM(rng *rand.Rand, name string, in, hidden int) *LSTM {
	l := &LSTM{
		in:     in,
		hidden: hidden,
		wx:     newParam(name+".wx", in, 4*hidden),
		wh:     newParam(name+".wh", hidden, 4*hidden),
		b:      newParam(name+".b", 4*hidden),
	}
	xavierUniform(rng, l.wx.Data, in, 4*hidden)
	xavierUniform(rng, l.wh.Data, hidden, 4*hidden)
	for j := hidden; j < 2*hidden; j++ { // forget gate slice
		l.b.Data.Data[j] = 1
	}
	return l
}

// Forward runs the recurrence over x of shape [N, T, F].
func (l *LSTM) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[2] != l.in {
		panic(fmt.Sprintf("nn: LSTM expects [N, T, %d] input, got %v", l.in, x.Shape))
	}
	n, t := x.Shape[0], x.Shape[1]
	h := l.hidden
	l.steps = t
	l.lastBatchN = n
	l.xs = make([]*tensor.Tensor, t)
	l.hs = make([]*tensor.Tensor, t)
	l.cs = make([]*tensor.Tensor, t)
	l.gates = make([]*tensor.Tensor, t)
	l.tanhCs = make([]*tensor.Tensor, t)

	out := tensor.New(n, t, h)
	hPrev := tensor.New(n, h)
	cPrev := tensor.New(n, h)
	for step := 0; step < t; step++ {
		// Gather the step input (time-major slice of a batch-major tensor).
		xt := tensor.New(n, l.in)
		for i := 0; i < n; i++ {
			src := x.Data[(i*t+step)*l.in : (i*t+step+1)*l.in]
			copy(xt.Data[i*l.in:(i+1)*l.in], src)
		}
		l.xs[step] = xt

		z := tensor.MatMul(xt, l.wx.Data)
		z.AddAssign(tensor.MatMul(hPrev, l.wh.Data))
		for i := 0; i < n; i++ {
			row := z.Data[i*4*h : (i+1)*4*h]
			for j := range row {
				row[j] += l.b.Data.Data[j]
			}
		}

		// Activate gates in place: sigmoid for i/f/o, tanh for g.
		for i := 0; i < n; i++ {
			row := z.Data[i*4*h : (i+1)*4*h]
			for j := 0; j < h; j++ {
				row[j] = sigmoid(row[j])           // input gate
				row[h+j] = sigmoid(row[h+j])       // forget gate
				row[2*h+j] = math.Tanh(row[2*h+j]) // cell candidate
				row[3*h+j] = sigmoid(row[3*h+j])   // output gate
			}
		}
		l.gates[step] = z

		cNew := tensor.New(n, h)
		hNew := tensor.New(n, h)
		tc := tensor.New(n, h)
		for i := 0; i < n; i++ {
			g := z.Data[i*4*h : (i+1)*4*h]
			for j := 0; j < h; j++ {
				c := g[h+j]*cPrev.Data[i*h+j] + g[j]*g[2*h+j]
				cNew.Data[i*h+j] = c
				tcv := math.Tanh(c)
				tc.Data[i*h+j] = tcv
				hNew.Data[i*h+j] = g[3*h+j] * tcv
			}
		}
		l.cs[step] = cNew
		l.tanhCs[step] = tc
		l.hs[step] = hNew

		for i := 0; i < n; i++ {
			copy(out.Data[(i*t+step)*h:(i*t+step+1)*h], hNew.Data[i*h:(i+1)*h])
		}
		hPrev, cPrev = hNew, cNew
	}
	return out
}

// Backward performs backpropagation through time for grad of shape
// [N, T, H].
func (l *LSTM) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.steps == 0 {
		panic("nn: LSTM.Backward called before Forward")
	}
	n, t, h := l.lastBatchN, l.steps, l.hidden
	dx := tensor.New(n, t, l.in)
	dhNext := tensor.New(n, h)
	dcNext := tensor.New(n, h)

	for step := t - 1; step >= 0; step-- {
		gatesT := l.gates[step]
		tanhC := l.tanhCs[step]
		var cPrev *tensor.Tensor
		if step > 0 {
			cPrev = l.cs[step-1]
		} else {
			cPrev = tensor.New(n, h)
		}
		var hPrev *tensor.Tensor
		if step > 0 {
			hPrev = l.hs[step-1]
		} else {
			hPrev = tensor.New(n, h)
		}

		dz := tensor.New(n, 4*h)
		dcPrev := tensor.New(n, h)
		for i := 0; i < n; i++ {
			g := gatesT.Data[i*4*h : (i+1)*4*h]
			dzRow := dz.Data[i*4*h : (i+1)*4*h]
			for j := 0; j < h; j++ {
				dh := grad.Data[(i*t+step)*h+j] + dhNext.Data[i*h+j]
				tc := tanhC.Data[i*h+j]
				ig, fg, gg, og := g[j], g[h+j], g[2*h+j], g[3*h+j]

				do := dh * tc
				dc := dcNext.Data[i*h+j] + dh*og*(1-tc*tc)

				di := dc * gg
				dg := dc * ig
				df := dc * cPrev.Data[i*h+j]
				dcPrev.Data[i*h+j] = dc * fg

				dzRow[j] = di * ig * (1 - ig)
				dzRow[h+j] = df * fg * (1 - fg)
				dzRow[2*h+j] = dg * (1 - gg*gg)
				dzRow[3*h+j] = do * og * (1 - og)
			}
		}

		l.wx.Gradient().AddAssign(tensor.MatMulTransA(l.xs[step], dz))
		l.wh.Gradient().AddAssign(tensor.MatMulTransA(hPrev, dz))
		db := l.b.Gradient().Data
		for i := 0; i < n; i++ {
			row := dz.Data[i*4*h : (i+1)*4*h]
			for j := range row {
				db[j] += row[j]
			}
		}

		dxt := tensor.MatMulTransB(dz, l.wx.Data)
		for i := 0; i < n; i++ {
			copy(dx.Data[(i*t+step)*l.in:(i*t+step+1)*l.in], dxt.Data[i*l.in:(i+1)*l.in])
		}
		dhNext = tensor.MatMulTransB(dz, l.wh.Data)
		dcNext = dcPrev
	}
	return dx
}

// Params returns the input, recurrent, and bias parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }
