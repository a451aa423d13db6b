package nn

import (
	"math"
	"math/rand"
	"testing"

	"apf/internal/tensor"
)

// quadLoss is 0.5·Σy² — a smooth scalar loss whose gradient w.r.t. y is y,
// exercising every output element during gradient checks.
func quadLoss(y *tensor.Tensor) float64 {
	s := 0.0
	for _, v := range y.Data {
		s += v * v
	}
	return 0.5 * s
}

func quadLossGrad(y *tensor.Tensor) *tensor.Tensor { return y.Clone() }

// checkLayer runs GradCheck with defaults suitable for float64.
func checkLayer(t *testing.T, layer Layer, x *tensor.Tensor) {
	t.Helper()
	res, err := GradCheck(layer, x, quadLoss, quadLossGrad, 1e-5, 1e-4, 200)
	if err != nil {
		t.Fatalf("%v (worst %v at %s[%d])", err, res.MaxRelErr, res.Param, res.Index)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(rng, "fc", 5, 4)
	checkLayer(t, layer, tensor.Randn(rng, 0, 1, 3, 5))
}

func TestDenseForwardValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, "fc", 2, 2)
	// Overwrite with known weights.
	copy(d.w.Data.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.b.Data.Data, []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.Forward(x, true)
	if y.Data[0] != 14 || y.Data[1] != 26 {
		t.Errorf("Dense forward = %v, want [14 26]", y.Data)
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tests := []struct {
		name                      string
		inC, outC, k, stride, pad int
		h, w                      int
	}{
		{"basic", 2, 3, 3, 1, 0, 5, 5},
		{"padded", 1, 2, 3, 1, 1, 4, 4},
		{"strided", 2, 2, 3, 2, 1, 6, 6},
		{"1x1", 3, 2, 1, 1, 0, 3, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			layer := NewConv2D(rng, "conv", tt.inC, tt.outC, tt.k, tt.stride, tt.pad)
			checkLayer(t, layer, tensor.Randn(rng, 0, 1, 2, tt.inC, tt.h, tt.w))
		})
	}
}

func TestConv2DKnownValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D(rng, "conv", 1, 1, 2, 1, 0)
	copy(c.w.Data.Data, []float64{1, 0, 0, 1}) // identity-diagonal kernel
	c.b.Data.Data[0] = 0.5
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := c.Forward(x, true)
	// y[0,0] = 1+5+0.5 = 6.5 ; y[1,1] = 5+9+0.5 = 14.5
	if y.At(0, 0, 0, 0) != 6.5 || y.At(0, 0, 1, 1) != 14.5 {
		t.Errorf("conv values wrong: %v", y.Data)
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewMaxPool2D(2, 2)
	checkLayer(t, layer, tensor.Randn(rng, 0, 1, 2, 2, 4, 4))
}

func TestMaxPoolForward(t *testing.T) {
	p := NewMaxPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 3,
		4, 0, 1, 1,
		7, 1, 0, 2,
		0, 3, 9, 2,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := []float64{4, 5, 7, 9}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("maxpool[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checkLayer(t, NewGlobalAvgPool2D(), tensor.Randn(rng, 0, 1, 2, 3, 4, 4))
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layers := map[string]Layer{
		"relu":    NewReLU(),
		"tanh":    NewTanh(),
		"sigmoid": NewSigmoid(),
	}
	for name, layer := range layers {
		t.Run(name, func(t *testing.T) {
			// Shift away from 0 so ReLU's kink does not break finite differences.
			x := tensor.Randn(rng, 0, 1, 3, 7)
			for i := range x.Data {
				if math.Abs(x.Data[i]) < 1e-2 {
					x.Data[i] = 0.1
				}
			}
			checkLayer(t, layer, x)
		})
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewBatchNorm2D("bn", 3)
	checkLayer(t, layer, tensor.Randn(rng, 1, 2, 4, 3, 3, 3))
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.Randn(rng, 5, 3, 8, 2, 4, 4)
	y := bn.Forward(x, true)
	// Per channel, training output should be ~zero-mean unit-variance.
	n, c, plane := 8, 2, 16
	for ic := 0; ic < c; ic++ {
		sum, sq := 0.0, 0.0
		for in := 0; in < n; in++ {
			base := (in*c + ic) * plane
			for i := 0; i < plane; i++ {
				v := y.Data[base+i]
				sum += v
				sq += v * v
			}
		}
		m := float64(n * plane)
		mean := sum / m
		variance := sq/m - mean*mean
		if math.Abs(mean) > 1e-9 {
			t.Errorf("channel %d mean %v, want ~0", ic, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Errorf("channel %d variance %v, want ~1", ic, variance)
		}
	}
	// Running stats should move toward the batch stats.
	if bn.runMean.Data.Data[0] == 0 {
		t.Error("running mean not updated")
	}
	// Eval mode must not change cached state requirements.
	_ = bn.Forward(x, false)
}

func TestBasicBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	t.Run("identity-shortcut", func(t *testing.T) {
		layer := NewBasicBlock(rng, "blk", 2, 2, 1)
		checkLayer(t, layer, tensor.Randn(rng, 0, 1, 2, 2, 4, 4))
	})
	t.Run("projection-shortcut", func(t *testing.T) {
		layer := NewBasicBlock(rng, "blk", 2, 4, 2)
		checkLayer(t, layer, tensor.Randn(rng, 0, 1, 2, 2, 4, 4))
	})
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewLSTM(rng, "lstm", 3, 4)
	checkLayer(t, layer, tensor.Randn(rng, 0, 1, 2, 5, 3))
}

func TestStackedLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stack := NewSequential(
		NewLSTM(rng, "lstm1", 3, 4),
		NewLSTM(rng, "lstm2", 4, 4),
		NewLastStep(),
	)
	checkLayer(t, stack, tensor.Randn(rng, 0, 1, 2, 4, 3))
}

func TestLastStep(t *testing.T) {
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4, 5, 6, // sample 0: t0=(1,2) t1=(3,4) t2=(5,6)
		7, 8, 9, 10, 11, 12,
	}, 2, 3, 2)
	l := NewLastStep()
	y := l.Forward(x, true)
	want := []float64{5, 6, 11, 12}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("LastStep[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
	g := l.Backward(tensor.FromSlice([]float64{1, 1, 1, 1}, 2, 2))
	if g.At(0, 2, 0) != 1 || g.At(0, 0, 0) != 0 {
		t.Errorf("LastStep backward scatter wrong: %v", g.Data)
	}
}

func TestDropoutSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewDropout(rng, 0.5)
	x := tensor.Ones(1, 1000)

	// Eval mode: identity.
	y := d.Forward(x, false)
	for _, v := range y.Data {
		if v != 1 {
			t.Fatal("dropout must be identity in eval mode")
		}
	}

	// Train mode: survivors are scaled, expectation preserved.
	y = d.Forward(x, true)
	zeros, scaled := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropout zeroed %d of 1000 at p=0.5", zeros)
	}
	if mean := y.Mean(); math.Abs(mean-1) > 0.1 {
		t.Errorf("dropout mean %v, want ~1 (inverted scaling)", mean)
	}

	// Backward uses the same mask.
	g := d.Backward(tensor.Ones(1, 1000))
	for i, v := range g.Data {
		if (y.Data[i] == 0) != (v == 0) {
			t.Fatal("dropout backward mask differs from forward mask")
		}
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	l := NewSoftmaxCrossEntropy()
	logits := tensor.FromSlice([]float64{2, 1, 0.1, 0, 5, 0}, 2, 3)
	loss := l.Forward(logits, []int{0, 1})
	if loss <= 0 || math.IsNaN(loss) {
		t.Fatalf("bad loss %v", loss)
	}
	grad := l.Backward()
	// Rows of the gradient sum to zero (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		s := grad.Data[i*3] + grad.Data[i*3+1] + grad.Data[i*3+2]
		if math.Abs(s) > 1e-12 {
			t.Errorf("gradient row %d sums to %v, want 0", i, s)
		}
	}
	// Gradient at the true class is negative.
	if grad.At(0, 0) >= 0 || grad.At(1, 1) >= 0 {
		t.Error("gradient at true label should be negative")
	}
}

func TestSoftmaxCrossEntropyGradientNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	logits := tensor.Randn(rng, 0, 1, 3, 4)
	labels := []int{1, 3, 0}
	l := NewSoftmaxCrossEntropy()
	l.Forward(logits, labels)
	analytic := l.Backward()
	eps := 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp := l.Forward(logits, labels)
		logits.Data[i] = orig - eps
		lm := l.Forward(logits, labels)
		logits.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic.Data[i]) > 1e-6 {
			t.Fatalf("loss gradient mismatch at %d: %v vs %v", i, analytic.Data[i], numeric)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 0, 0, 1, 1, 0}, 3, 2)
	if got := Accuracy(logits, []int{0, 1, 1}); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Accuracy = %v, want 2/3", got)
	}
	// Ties resolve to the lowest index: the tied row predicts class 0.
	tied := tensor.FromSlice([]float64{1, 5, 2, 7, 0, 3, 3, 3, 1}, 3, 3)
	if got := Accuracy(tied, []int{1, 0, 0}); got != 1 {
		t.Errorf("Accuracy with a tied row = %v, want 1", got)
	}
	if got := Accuracy(tied, []int{1, 0, 1}); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Accuracy with a tied row = %v, want 2/3", got)
	}
}

func TestFlattenVectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(
		NewDense(rng, "fc1", 4, 8),
		NewReLU(),
		NewDense(rng, "fc2", 8, 3),
	)
	params := net.Params()
	n := ParamCount(params)
	if n != 4*8+8+8*3+3 {
		t.Fatalf("ParamCount = %d", n)
	}
	flat := FlattenParams(params, nil)
	if len(flat) != n {
		t.Fatalf("Flatten length %d", len(flat))
	}
	// Perturb and write back.
	for i := range flat {
		flat[i] += 1
	}
	SetFlat(params, flat)
	again := FlattenParams(params, nil)
	for i := range again {
		if again[i] != flat[i] {
			t.Fatal("SetFlat/Flatten round trip failed")
		}
	}

	spans := Spans(params)
	if len(spans) != 4 {
		t.Fatalf("expected 4 spans, got %d", len(spans))
	}
	if spans[0].Name != "fc1.w" || spans[0].Offset != 0 || spans[0].Length != 32 {
		t.Errorf("span 0 wrong: %+v", spans[0])
	}
	if spans[3].Offset+spans[3].Length != n {
		t.Error("spans do not cover the vector")
	}
}

func TestSetFlatValidatesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork(NewDense(rng, "fc", 2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("SetFlat with wrong length did not panic")
		}
	}()
	SetFlat(net.Params(), make([]float64, 3))
}

// TestTrainingReducesLoss is the substrate's end-to-end smoke test: a small
// MLP must fit a linearly separable problem with plain SGD.
func TestTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork(
		NewDense(rng, "fc1", 2, 16),
		NewTanh(),
		NewDense(rng, "fc2", 16, 2),
	)
	// Two Gaussian blobs.
	const n = 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		x.Data[2*i] = rng.NormFloat64()*0.3 + float64(2*c-1)
		x.Data[2*i+1] = rng.NormFloat64()*0.3 - float64(2*c-1)
	}
	first, _ := net.Eval(x, labels)
	lr := 0.5
	for step := 0; step < 200; step++ {
		ZeroGrads(net.Params())
		net.LossGrad(x, labels)
		for _, p := range net.Params() {
			if p.Trainable {
				p.Data.Axpy(-lr, p.Grad)
			}
		}
	}
	last, acc := net.Eval(x, labels)
	if last >= first/4 {
		t.Errorf("training did not reduce loss: %v -> %v", first, last)
	}
	if acc < 0.95 {
		t.Errorf("accuracy %v after training, want ≥ 0.95", acc)
	}
}

func TestAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	layer := NewAvgPool2D(2, 2)
	checkLayer(t, layer, tensor.Randn(rng, 0, 1, 2, 2, 4, 4))
}

func TestAvgPoolForward(t *testing.T) {
	p := NewAvgPool2D(2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 3,
		3, 2, 1, 1,
		7, 1, 0, 2,
		0, 4, 10, 0,
	}, 1, 1, 4, 4)
	y := p.Forward(x, true)
	want := []float64{2, 2.5, 3, 3}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("avgpool[%d] = %v, want %v", i, y.Data[i], v)
		}
	}
}

func TestAvgPoolOverlappingStride(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	layer := NewAvgPool2D(3, 1) // overlapping windows
	checkLayer(t, layer, tensor.Randn(rng, 0, 1, 1, 2, 5, 5))
}
