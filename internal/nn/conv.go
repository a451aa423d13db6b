package nn

import (
	"fmt"
	"math/rand"

	"apf/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs with He-normal
// initialized kernels of shape [outC, inC, k, k]. The implementation
// lowers each sample to an im2col matrix so both passes run as matrix
// products (the dominant cost of every experiment, so it is worth the
// extra buffer).
type Conv2D struct {
	inC, outC, k, stride, pad int

	w, b *Param

	lastInput *tensor.Tensor
	cols      *tensor.Tensor // [N, inC·k·k, oh·ow]: every sample's im2col matrix
	out, dx   *tensor.Tensor
	dcols     *tensor.Tensor // one sample's column gradient
	dw        *tensor.Tensor // one sample's kernel-gradient product

	// [outC, inC·k·k] views of the kernel and its gradient. wMat is
	// re-pointed at the kernel on every pass: the kernel's storage may move
	// (nn.BindFlat).
	wMat, dwMat *tensor.Tensor
	// Headers re-pointed at one sample's slice of cols, out and the
	// incoming gradient.
	colsMat, yMat, dyMat *tensor.Tensor
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a square-kernel convolution layer.
func NewConv2D(rng *rand.Rand, name string, inC, outC, k, stride, pad int) *Conv2D {
	if k <= 0 || stride <= 0 || pad < 0 {
		panic(fmt.Sprintf("nn: invalid Conv2D geometry k=%d stride=%d pad=%d", k, stride, pad))
	}
	c := &Conv2D{
		inC:    inC,
		outC:   outC,
		k:      k,
		stride: stride,
		pad:    pad,
		w:      newParam(name+".w", outC, inC, k, k),
		b:      newParam(name+".b", outC),
	}
	heNormal(rng, c.w.Data, inC*k*k)
	c.dwMat = c.w.Grad.Reshape(outC, inC*k*k)
	return c
}

// outDim computes the output spatial extent for an input extent.
func (c *Conv2D) outDim(in int) int { return (in+2*c.pad-c.k)/c.stride + 1 }

// span returns the output positions [lo, hi) of one spatial axis, of
// extent on, whose input position o·stride − pad + kk lies inside [0, in):
// the cells kernel offset kk reads from the image rather than the padding.
func (c *Conv2D) span(kk, in, on int) (lo, hi int) {
	if d := c.pad - kk; d > 0 {
		lo = (d + c.stride - 1) / c.stride
	}
	hi = (in + c.pad - kk + c.stride - 1) / c.stride
	return min(lo, on), max(min(hi, on), min(lo, on))
}

// im2col lowers one sample (flat [inC, h, w] data) into od, a row-major
// [inC·k·k, oh·ow] matrix whose columns are receptive fields. Every cell
// is written, padding included, so od may hold a previous call's values.
func (c *Conv2D) im2col(sample, od []float64, h, w, oh, ow int) {
	cols := oh * ow
	for ic := 0; ic < c.inC; ic++ {
		plane := sample[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < c.k; ky++ {
			for kx := 0; kx < c.k; kx++ {
				row := ((ic*c.k+ky)*c.k + kx) * cols
				lo, hi := c.span(kx, w, ow)
				off := kx - c.pad // input column of output column 0
				for oy := 0; oy < oh; oy++ {
					dst := od[row+oy*ow : row+(oy+1)*ow]
					iy := oy*c.stride - c.pad + ky
					if iy < 0 || iy >= h {
						clear(dst) // padding row
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

// col2im scatters a [inC·k·k, oh·ow] gradient matrix back onto one
// sample's flat [inC, h, w] gradient, accumulating overlaps.
func (c *Conv2D) col2im(colsGrad *tensor.Tensor, dst []float64, h, w, oh, ow int) {
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

// Forward computes the convolution for x of shape [N, inC, H, W].
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Shape[1] != c.inC {
		panic(fmt.Sprintf("nn: Conv2D expects [N, %d, H, W] input, got %v", c.inC, x.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := c.outDim(h), c.outDim(w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: Conv2D input %v too small for k=%d stride=%d pad=%d", x.Shape, c.k, c.stride, c.pad))
	}
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

// Backward accumulates kernel and bias gradients and returns the input
// gradient.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, true)
}

// backwardParams accumulates kernel and bias gradients only.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) { c.backward(grad, false) }

func (c *Conv2D) backward(grad *tensor.Tensor, wantDx bool) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: Conv2D.Backward called before Forward")
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	rows := c.inC * c.k * c.k
	c.dw = ensure(c.dw, c.outC, rows)
	c.wMat = view(c.wMat, c.w.Data.Data, c.outC, rows)
	c.w.Gradient() // dwMat views it: write the zeros a mark stands for
	db := c.b.Gradient().Data
	if wantDx {
		c.dx = ensure(c.dx, x.Shape...)
		clear(c.dx.Data) // col2im accumulates
		c.dcols = ensure(c.dcols, rows, oh*ow)
	}

	sampleIn := c.inC * h * w
	sampleCols := rows * oh * ow
	sampleOut := c.outC * oh * ow
	for in := 0; in < n; in++ {
		c.dyMat = view(c.dyMat, grad.Data[in*sampleOut:(in+1)*sampleOut], c.outC, oh*ow)
		dy := c.dyMat.Data
		// Bias: row sums of dy.
		for oc := 0; oc < c.outC; oc++ {
			s := 0.0
			for _, v := range dy[oc*oh*ow : (oc+1)*oh*ow] {
				s += v
			}
			db[oc] += s
		}
		// Kernel: dW += dy · colsᵀ.
		c.colsMat = view(c.colsMat, c.cols.Data[in*sampleCols:(in+1)*sampleCols], rows, oh*ow)
		tensor.MatMulTransBInto(c.dw, c.dyMat, c.colsMat)
		c.dwMat.AddAssign(c.dw)
		if wantDx {
			// Input: dcols = Wᵀ · dy, scattered back.
			tensor.MatMulTransAInto(c.dcols, c.wMat, c.dyMat)
			c.col2im(c.dcols, c.dx.Data[in*sampleIn:(in+1)*sampleIn], h, w, oh, ow)
		}
	}
	if !wantDx {
		return nil
	}
	return c.dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }
