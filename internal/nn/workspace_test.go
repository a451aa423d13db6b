package nn

import (
	"math"
	"math/rand"
	"testing"

	"apf/internal/tensor"
)

// netOp is one call replayed on a network whose workspaces are reused and
// on a freshly built twin holding the same parameters.
type netOp struct {
	train  bool // LossGrad, or Eval when false
	x      *tensor.Tensor
	labels []int
}

func randomOp(rng *rand.Rand, train bool, classes int, shape ...int) netOp {
	labels := make([]int, shape[0])
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return netOp{train: train, x: tensor.Randn(rng, 0, 1, shape...), labels: labels}
}

func (op netOp) run(net *Network) (loss, acc float64) {
	ZeroGrads(net.Params())
	if op.train {
		return net.LossGrad(op.x, op.labels)
	}
	return net.Eval(op.x, op.labels)
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkReuse replays ops on one network and requires every loss, accuracy,
// gradient and tracked statistic to equal, bit for bit, those of a network
// built fresh for that op alone. Between ops the reused network takes an
// SGD step, so every op runs at a new point.
func checkReuse(t *testing.T, build func() *Network, ops []netOp) {
	t.Helper()
	reused := build()
	for i, op := range ops {
		fresh := build()
		SetFlat(fresh.Params(), FlattenParams(reused.Params(), nil))
		gotLoss, gotAcc := op.run(reused)
		wantLoss, wantAcc := op.run(fresh)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) || gotAcc != wantAcc {
			t.Fatalf("op %d (train=%v, x %v): loss/acc %v/%v, fresh network %v/%v",
				i, op.train, op.x.Shape, gotLoss, gotAcc, wantLoss, wantAcc)
		}
		if j := sameBits(FlattenGrads(reused.Params(), nil), FlattenGrads(fresh.Params(), nil)); j >= 0 {
			t.Fatalf("op %d (train=%v, x %v): gradient %d differs from a fresh network's", i, op.train, op.x.Shape, j)
		}
		if j := sameBits(FlattenParams(reused.Params(), nil), FlattenParams(fresh.Params(), nil)); j >= 0 {
			t.Fatalf("op %d (train=%v, x %v): parameter %d differs from a fresh network's", i, op.train, op.x.Shape, j)
		}
		for _, p := range reused.Params() {
			if p.Trainable {
				p.Data.Axpy(-0.1, p.Grad)
			}
		}
	}
}

// TestWorkspaceReuseMatchesFreshLayers holds the layer workspaces to the
// contract that reuse is invisible: a network whose layers reuse their
// buffers computes exactly what freshly built layers compute, across a
// smaller last batch, Eval interleaved between LossGrad calls, padded and
// strided convolutions whose padding cells must be re-zeroed when the
// spatial geometry changes at an equal buffer shape, and BasicBlock's
// in-place add into the input gradient its conv1 returned.
func TestWorkspaceReuseMatchesFreshLayers(t *testing.T) {
	t.Run("lenet-like", func(t *testing.T) {
		build := func() *Network {
			rng := rand.New(rand.NewSource(41))
			return NewNetwork(
				NewConv2D(rng, "conv1", 2, 4, 3, 1, 1),
				NewReLU(),
				NewMaxPool2D(2, 2),
				NewConv2D(rng, "conv2", 4, 6, 3, 1, 0),
				NewReLU(),
				NewFlatten(),
				NewDense(rng, "fc1", 6*2*2, 12),
				NewTanh(),
				NewDense(rng, "fc2", 12, 5),
			)
		}
		rng := rand.New(rand.NewSource(42))
		checkReuse(t, build, []netOp{
			randomOp(rng, true, 5, 6, 2, 8, 8),
			randomOp(rng, true, 5, 6, 2, 8, 8),
			randomOp(rng, false, 5, 4, 2, 8, 8),
			randomOp(rng, true, 5, 6, 2, 8, 8),
			randomOp(rng, false, 5, 6, 2, 8, 8),
			randomOp(rng, true, 5, 6, 2, 8, 8),
			randomOp(rng, true, 5, 3, 2, 8, 8), // a smaller last batch
			randomOp(rng, true, 5, 6, 2, 8, 8),
		})
	})
	t.Run("residual", func(t *testing.T) {
		build := func() *Network {
			rng := rand.New(rand.NewSource(43))
			return NewNetwork(
				NewConv2D(rng, "stem", 1, 4, 3, 1, 1),
				NewReLU(),
				NewBasicBlockNorm(rng, "b1", 4, 4, 1, GroupNormFactory(2)),
				NewBasicBlock(rng, "b2", 4, 6, 2),
				NewGlobalAvgPool2D(),
				NewDense(rng, "fc", 6, 3),
			)
		}
		rng := rand.New(rand.NewSource(44))
		checkReuse(t, build, []netOp{
			randomOp(rng, true, 3, 4, 1, 6, 4),
			randomOp(rng, true, 3, 4, 1, 6, 4),
			randomOp(rng, true, 3, 4, 1, 4, 6), // same buffer shapes, other padding cells
			randomOp(rng, false, 3, 4, 1, 6, 4),
			randomOp(rng, true, 3, 4, 1, 6, 4),
			randomOp(rng, true, 3, 2, 1, 6, 4),
			randomOp(rng, true, 3, 4, 1, 6, 4),
		})
	})
}

// TestDenseGradientAccumulates covers both ways Dense lands dW — written
// over a gradient ZeroGrads marked, whatever its storage held, and through
// its scratch into one that holds a sum already — against xᵀ·dy and
// Grad + xᵀ·dy with the product rounded first.
func TestDenseGradientAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	d := NewDense(rng, "fc", 5, 3)
	x, dy := tensor.Randn(rng, 0, 1, 4, 5), tensor.Randn(rng, 0, 1, 4, 3)
	x.Data[2] = 0 // a skipped term
	// A previous step's values, which the mark stands over.
	d.w.Grad.Fill(math.NaN())
	ZeroGrads(d.Params())
	for pass := 0; pass < 3; pass++ {
		want := tensor.MatMulTransA(x, dy)
		if pass > 0 {
			sum := d.w.Grad.Clone()
			sum.AddAssign(want)
			want = sum
		}
		d.Forward(x, true)
		d.Backward(dy)
		if j := sameBits(d.w.Grad.Data, want.Data); j >= 0 {
			t.Fatalf("pass %d: dW[%d] = %v, want %v", pass, j, d.w.Grad.Data[j], want.Data[j])
		}
	}
}

// TestIm2colWritesEveryCell checks the batch lowering cell by cell against
// its definition, into a buffer pre-filled with NaN: sample n's column
// n·oh·ow + q holds an image cell where the receptive field is inside the
// image, and +0 where it is padding.
func TestIm2colWritesEveryCell(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 60; trial++ {
		n, inC, k := 1+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(4)
		stride, pad := 1+rng.Intn(3), rng.Intn(3)
		h, w := k+rng.Intn(5), k+rng.Intn(5)
		c := NewConv2D(rng, "conv", inC, 1, k, stride, pad)
		oh, ow := c.outDim(h), c.outDim(w)
		p := oh * ow
		x := tensor.Randn(rng, 0, 1, n, inC, h, w)
		cols := make([]float64, inC*k*k*n*p)
		for i := range cols {
			cols[i] = math.NaN()
		}
		for in := 0; in < n; in++ {
			c.im2col(x.Data[in*inC*h*w:(in+1)*inC*h*w], cols[in*p:], n*p, h, w, oh, ow)
		}
		for in := 0; in < n; in++ {
			for ic := 0; ic < inC; ic++ {
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						for oy := 0; oy < oh; oy++ {
							for ox := 0; ox < ow; ox++ {
								iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
								want := 0.0
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									want = x.At(in, ic, iy, ix)
								}
								got := cols[((ic*k+ky)*k+kx)*n*p+in*p+oy*ow+ox]
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("n=%d k=%d stride=%d pad=%d %dx%d: cell (%d,%d,%d,%d,%d,%d) = %v, want %v",
										n, k, stride, pad, h, w, in, ic, ky, kx, oy, ox, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestReLUSelectsLikeTheBranch pins the branch-free select to the
// comparison it replaces on every IEEE class: x > 0 keeps x (and passes the
// gradient), anything else, −0 and NaN included, gives +0.
func TestReLUSelectsLikeTheBranch(t *testing.T) {
	vals := []float64{1, -1, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		-math.NaN(), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	x := tensor.FromSlice(vals, 1, len(vals))
	g := tensor.Full(math.Copysign(0, -1), 1, len(vals))
	g.Data[0] = 3
	r := NewReLU()
	y, dx := r.Forward(x, true), r.Backward(g)
	for i, v := range vals {
		wantY, wantDx := 0.0, 0.0
		if v > 0 {
			wantY, wantDx = v, g.Data[i]
		}
		if math.Float64bits(y.Data[i]) != math.Float64bits(wantY) || math.Float64bits(dx.Data[i]) != math.Float64bits(wantDx) {
			t.Errorf("ReLU(%v) = %v, grad %v; want %v, grad %v", v, y.Data[i], dx.Data[i], wantY, wantDx)
		}
	}
}
