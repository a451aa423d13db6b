package nn

import (
	"math"
	"math/rand"
	"testing"

	"apf/internal/tensor"
)

// perSampleConv is Conv2D as it was before the batch lowering, kept
// verbatim apart from its parameters, which are copies of a Conv2D's: each
// sample is lowered to its own [inC·k·k, oh·ow] matrix, and the kernel
// gradient is one product per sample added into the gradient. Conv2D must
// match it bit for bit.
type perSampleConv struct {
	inC, outC, k, stride, pad int

	w, b *Param

	lastInput *tensor.Tensor
	cols      *tensor.Tensor // [N, inC·k·k, oh·ow]: every sample's im2col matrix
	out, dx   *tensor.Tensor
	dcols     *tensor.Tensor // one sample's column gradient
	dw        *tensor.Tensor // one sample's kernel-gradient product

	wMat, dwMat          *tensor.Tensor
	colsMat, yMat, dyMat *tensor.Tensor
}

func newPerSampleConv(c *Conv2D) *perSampleConv {
	r := &perSampleConv{inC: c.inC, outC: c.outC, k: c.k, stride: c.stride, pad: c.pad,
		w: newParam("ref.w", c.w.Data.Shape...), b: newParam("ref.b", c.b.Data.Shape...)}
	r.w.Data.CopyFrom(c.w.Data)
	r.b.Data.CopyFrom(c.b.Data)
	r.dwMat = r.w.Grad.Reshape(c.outC, c.inC*c.k*c.k)
	return r
}

func (c *perSampleConv) outDim(in int) int { return (in+2*c.pad-c.k)/c.stride + 1 }

func (c *perSampleConv) span(kk, in, on int) (lo, hi int) {
	if d := c.pad - kk; d > 0 {
		lo = (d + c.stride - 1) / c.stride
	}
	hi = (in + c.pad - kk + c.stride - 1) / c.stride
	return min(lo, on), max(min(hi, on), min(lo, on))
}

func (c *perSampleConv) im2col(sample, od []float64, h, w, oh, ow int) {
	cols := oh * ow
	for ic := 0; ic < c.inC; ic++ {
		plane := sample[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < c.k; ky++ {
			for kx := 0; kx < c.k; kx++ {
				row := ((ic*c.k+ky)*c.k + kx) * cols
				lo, hi := c.span(kx, w, ow)
				off := kx - c.pad
				for oy := 0; oy < oh; oy++ {
					dst := od[row+oy*ow : row+(oy+1)*ow]
					iy := oy*c.stride - c.pad + ky
					if iy < 0 || iy >= h {
						clear(dst)
						continue
					}
					src := plane[iy*w : (iy+1)*w]
					clear(dst[:lo])
					clear(dst[hi:])
					if c.stride == 1 {
						copy(dst[lo:hi], src[lo+off:])
						continue
					}
					for ox := lo; ox < hi; ox++ {
						dst[ox] = src[ox*c.stride+off]
					}
				}
			}
		}
	}
}

func (c *perSampleConv) col2im(colsGrad *tensor.Tensor, dst []float64, h, w, oh, ow int) {
	cols := oh * ow
	cd := colsGrad.Data
	for ic := 0; ic < c.inC; ic++ {
		plane := dst[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < c.k; ky++ {
			for kx := 0; kx < c.k; kx++ {
				row := ((ic*c.k+ky)*c.k + kx) * cols
				lo, hi := c.span(kx, w, ow)
				off := kx - c.pad
				for oy := 0; oy < oh; oy++ {
					iy := oy*c.stride - c.pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					dstRow := plane[iy*w : (iy+1)*w]
					srcRow := cd[row+oy*ow : row+(oy+1)*ow]
					for ox := lo; ox < hi; ox++ {
						dstRow[ox*c.stride+off] += srcRow[ox]
					}
				}
			}
		}
	}
}

func (c *perSampleConv) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDim(h), c.outDim(w)
	rows := c.inC * c.k * c.k
	c.lastInput = x
	c.cols = ensure(c.cols, n, rows, oh*ow)
	c.out = ensure(c.out, n, c.outC, oh, ow)
	c.wMat = view(c.wMat, c.w.Data.Data, c.outC, rows)

	sampleIn := c.inC * h * w
	sampleCols := rows * oh * ow
	sampleOut := c.outC * oh * ow
	for in := 0; in < n; in++ {
		cols := c.cols.Data[in*sampleCols : (in+1)*sampleCols]
		c.im2col(x.Data[in*sampleIn:(in+1)*sampleIn], cols, h, w, oh, ow)
		dst := c.out.Data[in*sampleOut : (in+1)*sampleOut]
		c.colsMat = view(c.colsMat, cols, rows, oh*ow)
		c.yMat = view(c.yMat, dst, c.outC, oh*ow)
		tensor.MatMulInto(c.yMat, c.wMat, c.colsMat)
		for oc := 0; oc < c.outC; oc++ {
			bias := c.b.Data.Data[oc]
			seg := dst[oc*oh*ow : (oc+1)*oh*ow]
			for i := range seg {
				seg[i] += bias
			}
		}
	}
	return c.out
}

func (c *perSampleConv) backward(grad *tensor.Tensor, wantDx bool) *tensor.Tensor {
	x := c.lastInput
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	rows := c.inC * c.k * c.k
	c.dw = ensure(c.dw, c.outC, rows)
	c.wMat = view(c.wMat, c.w.Data.Data, c.outC, rows)
	c.w.Gradient()
	db := c.b.Gradient().Data
	if wantDx {
		c.dx = ensure(c.dx, x.Shape...)
		clear(c.dx.Data)
		c.dcols = ensure(c.dcols, rows, oh*ow)
	}

	sampleIn := c.inC * h * w
	sampleCols := rows * oh * ow
	sampleOut := c.outC * oh * ow
	for in := 0; in < n; in++ {
		c.dyMat = view(c.dyMat, grad.Data[in*sampleOut:(in+1)*sampleOut], c.outC, oh*ow)
		dy := c.dyMat.Data
		for oc := 0; oc < c.outC; oc++ {
			s := 0.0
			for _, v := range dy[oc*oh*ow : (oc+1)*oh*ow] {
				s += v
			}
			db[oc] += s
		}
		c.colsMat = view(c.colsMat, c.cols.Data[in*sampleCols:(in+1)*sampleCols], rows, oh*ow)
		tensor.MatMulTransBInto(c.dw, c.dyMat, c.colsMat)
		c.dwMat.AddAssign(c.dw)
		if wantDx {
			tensor.MatMulTransAInto(c.dcols, c.wMat, c.dyMat)
			c.col2im(c.dcols, c.dx.Data[in*sampleIn:(in+1)*sampleIn], h, w, oh, ow)
		}
	}
	if !wantDx {
		return nil
	}
	return c.dx
}

// awkward overwrites about a fifth of xs with exact zeros, −0 and
// subnormals of both signs.
func awkward(rng *rand.Rand, xs []float64) {
	for i := range xs {
		switch rng.Intn(20) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = math.Copysign(0, -1)
		case 2:
			xs[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 3:
			xs[i] = -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		}
	}
}

// requireSame fails unless got and want hold the same bits, NaNs counting
// alike: which payload a sum of two NaNs carries is the compiler's choice
// of operand order, which Go does not specify.
func requireSame(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestConvMatchesPerSampleLowering holds the batch lowering to the
// per-sample one bit for bit: forward output, backwardParams' and
// Backward's gradients accumulated on top of each other, and the input
// gradient, over random strides, paddings and batch sizes (N = 1 and 1×1
// outputs included), kernels and inputs with exact zeros, −0 and
// subnormals, a NaN or an Inf in some inputs, and an incoming gradient
// that is sometimes the layer's own output.
func TestConvMatchesPerSampleLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 300; trial++ {
		n, inC, outC := 1+rng.Intn(4), 1+rng.Intn(3), 1+rng.Intn(5)
		k, stride, pad := 1+rng.Intn(4), 1+rng.Intn(3), rng.Intn(3)
		h, w := max(1, k-2*pad)+rng.Intn(5), max(1, k-2*pad)+rng.Intn(5)
		if trial%5 == 0 { // a 1×1 output
			h, w = k, k
			pad = 0
		}
		c := NewConv2D(rng, "conv", inC, outC, k, stride, pad)
		awkward(rng, c.w.Data.Data)
		c.b.Data.Fill(rng.NormFloat64())
		ref := newPerSampleConv(c)
		ZeroGrads(c.Params())
		ZeroGrads([]*Param{ref.w, ref.b})

		input := func() *tensor.Tensor {
			x := tensor.Randn(rng, 0, 1, n, inC, h, w)
			awkward(rng, x.Data)
			switch rng.Intn(6) {
			case 0:
				x.Data[rng.Intn(len(x.Data))] = math.NaN()
			case 1:
				x.Data[rng.Intn(len(x.Data))] = math.Inf(1 - 2*rng.Intn(2))
			}
			return x
		}
		gradient := func(y *tensor.Tensor) *tensor.Tensor {
			dy := tensor.Randn(rng, 0, 1, y.Shape...)
			awkward(rng, dy.Data)
			return dy
		}

		// backwardParams into zeroed gradients.
		x := input()
		y, want := c.Forward(x, true), ref.Forward(x)
		requireSame(t, "forward", y, want)
		dy := gradient(want)
		c.backwardParams(dy)
		ref.backward(dy, false)
		requireSame(t, "backwardParams dW", c.w.Gradient(), ref.w.Gradient())
		requireSame(t, "backwardParams db", c.b.Gradient(), ref.b.Gradient())

		// Backward accumulating on top, sometimes handed its own output.
		x = input()
		y, want = c.Forward(x, true), ref.Forward(x)
		requireSame(t, "second forward", y, want)
		var dx *tensor.Tensor
		if rng.Intn(3) == 0 {
			dx = c.Backward(y)
			ref.backward(want, true)
		} else {
			dy = gradient(want)
			dx = c.Backward(dy)
			ref.backward(dy, true)
		}
		requireSame(t, "Backward dx", dx, ref.dx)
		requireSame(t, "Backward dW", c.w.Gradient(), ref.w.Gradient())
		requireSame(t, "Backward db", c.b.Gradient(), ref.b.Gradient())
	}
}
