package nn

import (
	"fmt"
	"math/rand"
	"slices"

	"apf/internal/tensor"
)

// Conv2D is a 2-D convolution over [N, C, H, W] inputs with He-normal
// initialized kernels of shape [outC, inC, k, k]. It lowers the whole batch
// to one im2col matrix, so each pass is one matrix product whose rows span
// every sample (the dominant cost of every experiment; LeNet's conv2 has
// only 2×2 outputs per sample, too short a row to run alone). Each output
// element still sees exactly the rounded operations of a per-sample
// lowering, so results are bit-identical to one.
//
// The forward product is computed in the output's own storage and
// rearranged there into [N, outC, oh, ow]; Backward then reuses that
// storage for the gathered incoming gradient and the im2col matrix for the
// column gradient. So the output is valid until the next Forward or
// Backward, and each Forward supports one Backward.
type Conv2D struct {
	inC, outC, k, stride, pad int

	w, b *Param

	lastInput *tensor.Tensor
	// [inC·k·k, N·oh·ow]: sample n's receptive fields are columns
	// [n·oh·ow, (n+1)·oh·ow). Backward writes the column gradient over it.
	cols    *tensor.Tensor
	out, dx *tensor.Tensor
	// transposeBlocks' scratch: one oh·ow block and a bit per block of out.
	blk  []float64
	seen []uint64

	// [outC, inC·k·k] views of the kernel and its gradient. wMat is
	// re-pointed at the kernel on every pass: the kernel's storage may move
	// (nn.BindFlat).
	wMat, dwMat *tensor.Tensor
	// [outC, N·oh·ow] view of out's storage: the forward product, then the
	// gathered incoming gradient.
	yMat *tensor.Tensor
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

// im2col lowers one sample (flat [inC, h, w] data) into its oh·ow columns
// of the batch matrix: od starts at the sample's first column and rows are
// ld apart. Every cell is written, padding included, so od may hold a
// previous call's values.
func (c *Conv2D) im2col(sample, od []float64, ld, h, w, oh, ow int) {
	for ic := 0; ic < c.inC; ic++ {
		plane := sample[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < c.k; ky++ {
			for kx := 0; kx < c.k; kx++ {
				row := ((ic*c.k+ky)*c.k + kx) * ld
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

// col2im scatters one sample's columns of a column-gradient matrix (cd at
// the sample's first column, rows ld apart) back onto its flat [inC, h, w]
// gradient, accumulating overlaps.
func (c *Conv2D) col2im(cd []float64, ld int, dst []float64, h, w, oh, ow int) {
	for ic := 0; ic < c.inC; ic++ {
		plane := dst[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < c.k; ky++ {
			for kx := 0; kx < c.k; kx++ {
				row := ((ic*c.k+ky)*c.k + kx) * ld
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

// transposeBlocks rearranges d, an [a, b] grid of p-value blocks stored
// row-major, into the [b, a] grid in place. The block at index i = r·b + c
// belongs at c·a + r = i·a mod (a·b − 1); each cycle of that permutation is
// followed once, from its lowest index, holding one block in c.blk.
func (c *Conv2D) transposeBlocks(d []float64, a, b, p int) {
	last := a*b - 1
	if last <= 0 {
		return
	}
	c.blk = slices.Grow(c.blk[:0], p)[:p]
	c.seen = slices.Grow(c.seen[:0], last/64+1)[:last/64+1]
	clear(c.seen)
	for s := 1; s < last; s++ {
		if c.seen[s/64]&(1<<(s%64)) != 0 {
			continue
		}
		copy(c.blk, d[s*p:(s+1)*p])
		for cur := s; ; {
			c.seen[cur/64] |= 1 << (cur % 64)
			src := cur * b % last // the block that belongs at cur
			if src == s {
				copy(d[cur*p:(cur+1)*p], c.blk)
				break
			}
			copy(d[cur*p:(cur+1)*p], d[src*p:(src+1)*p])
			cur = src
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
	rows, p := c.inC*c.k*c.k, oh*ow
	c.lastInput = x
	c.cols = ensure(c.cols, rows, n*p)
	c.out = ensure(c.out, n, c.outC, oh, ow)
	c.wMat = view(c.wMat, c.w.Data.Data, c.outC, rows)

	sampleIn := c.inC * h * w
	for in := 0; in < n; in++ {
		c.im2col(x.Data[in*sampleIn:(in+1)*sampleIn], c.cols.Data[in*p:], n*p, h, w, oh, ow)
	}
	c.yMat = view(c.yMat, c.out.Data, c.outC, n*p)
	tensor.MatMulInto(c.yMat, c.wMat, c.cols)
	for oc := 0; oc < c.outC; oc++ {
		bias := c.b.Data.Data[oc]
		seg := c.yMat.Data[oc*n*p : (oc+1)*n*p]
		for i := range seg {
			seg[i] += bias
		}
	}
	c.transposeBlocks(c.out.Data, c.outC, n, p) // [outC, N] blocks → [N, outC]
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
	if !grad.SameShape(c.out) {
		panic(fmt.Sprintf("nn: Conv2D.Backward gradient %v, want %v", grad.Shape, c.out.Shape))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := grad.Shape[2], grad.Shape[3]
	rows, p := c.inC*c.k*c.k, oh*ow

	// Gather dy into [outC, N·oh·ow] over the spent forward output (in
	// place when dy is that output).
	dy := c.yMat.Data
	if &grad.Data[0] == &dy[0] {
		c.transposeBlocks(dy, n, c.outC, p)
	} else {
		for in := 0; in < n; in++ {
			for oc := 0; oc < c.outC; oc++ {
				copy(dy[(oc*n+in)*p:(oc*n+in+1)*p], grad.Data[(in*c.outC+oc)*p:])
			}
		}
	}
	// Bias: each sample's row sum of dy, added in sample order.
	db := c.b.Gradient().Data
	for oc := 0; oc < c.outC; oc++ {
		for in := 0; in < n; in++ {
			s := 0.0
			for _, v := range dy[(oc*n+in)*p : (oc*n+in+1)*p] {
				s += v
			}
			db[oc] += s
		}
	}
	// Kernel: dW += dy_n · cols_nᵀ for each sample n in turn.
	c.w.Gradient() // dwMat views it: write the zeros a mark stands for
	tensor.AddMatMulTransBBlocks(c.dwMat, c.yMat, c.cols, p)
	if !wantDx {
		return nil
	}
	// Input: dcols = Wᵀ · dy over the spent cols, scattered back per sample.
	c.wMat = view(c.wMat, c.w.Data.Data, c.outC, rows)
	tensor.MatMulTransAInto(c.cols, c.wMat, c.yMat)
	c.dx = ensure(c.dx, x.Shape...)
	clear(c.dx.Data) // col2im accumulates
	sampleIn := c.inC * h * w
	for in := 0; in < n; in++ {
		c.col2im(c.cols.Data[in*p:], n*p, c.dx.Data[in*sampleIn:(in+1)*sampleIn], h, w, oh, ow)
	}
	return c.dx
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }
