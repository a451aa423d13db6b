package tensor

import (
	"fmt"
	"math"
)

// checkSameShape panics if the two tensors differ in shape; op names the
// caller for the panic message.
func checkSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies o's elements into t. Shapes must match.
func (t *Tensor) CopyFrom(o *Tensor) {
	checkSameShape("CopyFrom", t, o)
	copy(t.Data, o.Data)
}

// AddAssign adds o elementwise into t.
func (t *Tensor) AddAssign(o *Tensor) {
	checkSameShape("AddAssign", t, o)
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// Scale multiplies every element of t by alpha.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Axpy performs t += alpha*x elementwise.
func (t *Tensor) Axpy(alpha float64, x *Tensor) {
	checkSameShape("Axpy", t, x)
	for i, v := range x.Data {
		t.Data[i] += alpha * v
	}
}

// Add returns a new tensor holding a+b.
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Sub returns a new tensor holding a-b.
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty
// tensor.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Norm2 returns the Euclidean (L2) norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	checkSameShape("Dot", a, b)
	s := 0.0
	for i, v := range a.Data {
		s += v * b.Data[i]
	}
	return s
}

// The matrix products share one contract: every output element is the sum
// of its inner-product terms accumulated from 0 in ascending inner index,
// rounded after every term, with a zero left-operand entry skipping its
// term in MatMul and MatMulTransA (so 0·Inf and 0·NaN contribute nothing
// there). AddMatMulTransBBlocks applies that rule to each block of inner
// indices and adds the block sums to dst in ascending block order. The
// kernels block the work — four inner indices per pass over an output row,
// four outputs per pass over a row of a — without reassociating any sum, so
// results are bit-identical to the plain loops (internal/tensor's tests
// keep those loops as references). Each product has one kernel; the
// allocating forms wrap the Into forms, whose dst must have the product's
// shape, is overwritten, and must not alias a or b.

// matDims validates the operands of a product whose a is (m×k), or (k×m)
// when transA, and whose b is (k×n), or (n×k) when transB.
func matDims(op string, a, b *Tensor, transA, transB bool) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v and %v", op, a.Shape, b.Shape))
	}
	m, k = a.Shape[0], a.Shape[1]
	if transA {
		m, k = k, m
	}
	k2, n := b.Shape[0], b.Shape[1]
	if transB {
		k2, n = n, k2
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimensions differ: %v vs %v", op, a.Shape, b.Shape))
	}
	return m, k, n
}

// checkDst panics unless dst is an m×n matrix.
func checkDst(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s destination %v, want [%d %d]", op, dst.Shape, m, n))
	}
}

// MatMul multiplies two rank-2 tensors: (m×k)·(k×n) → (m×n).
func MatMul(a, b *Tensor) *Tensor {
	m, _, n := matDims("MatMul", a, b, false, false)
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto writes a·b for a (m×k) and b (k×n) into dst (m×n).
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := matDims("MatMulInto", a, b, false, false)
	checkDst("MatMulInto", dst, m, n)
	for i := 0; i < m; i++ {
		addRowTerms(dst.Data[i*n:(i+1)*n], a.Data, i*k, 1, k, b.Data)
	}
}

// MatMulTransA computes aᵀ·b for rank-2 a (k×m) and b (k×n) → (m×n).
func MatMulTransA(a, b *Tensor) *Tensor {
	m, _, n := matDims("MatMulTransA", a, b, true, false)
	out := New(m, n)
	MatMulTransAInto(out, a, b)
	return out
}

// MatMulTransAInto writes aᵀ·b for a (k×m) and b (k×n) into dst (m×n).
func MatMulTransAInto(dst, a, b *Tensor) {
	m, k, n := matDims("MatMulTransAInto", a, b, true, false)
	checkDst("MatMulTransAInto", dst, m, n)
	for i := 0; i < m; i++ {
		// Output row i reads column i of a: k entries at stride m.
		addRowTerms(dst.Data[i*n:(i+1)*n], a.Data, i, m, k, b.Data)
	}
}

// addRowTerms sets o, one output row of length n, to Σ a[off+kk·stride]·
// b[kk, :] over kk < k with a non-zero coefficient, in ascending kk. It
// buffers four such terms and applies them in one pass over o; each element
// still rounds after every term, exactly as four separate passes would.
func addRowTerms(o, a []float64, off, stride, k int, b []float64) {
	clear(o)
	n := len(o)
	var ks [4]int
	var as [4]float64
	g := 0
	for kk := 0; kk < k; kk++ {
		v := a[off+kk*stride]
		if v == 0 {
			continue
		}
		ks[g], as[g] = kk*n, v
		if g++; g == 4 {
			addRows4(o, as[0], as[1], as[2], as[3], b[ks[0]:], b[ks[1]:], b[ks[2]:], b[ks[3]:])
			g = 0
		}
	}
	switch g {
	case 3:
		addRows3(o, as[0], as[1], as[2], b[ks[0]:], b[ks[1]:], b[ks[2]:])
	case 2:
		addRows2(o, as[0], as[1], b[ks[0]:], b[ks[1]:])
	case 1:
		addRows1(o, as[0], b[ks[0]:])
	}
}

func addRows4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	for j := range o {
		o[j] = o[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

func addRows3(o []float64, a0, a1, a2 float64, b0, b1, b2 []float64) {
	b0, b1, b2 = b0[:len(o)], b1[:len(o)], b2[:len(o)]
	for j := range o {
		o[j] = o[j] + a0*b0[j] + a1*b1[j] + a2*b2[j]
	}
}

func addRows2(o []float64, a0, a1 float64, b0, b1 []float64) {
	b0, b1 = b0[:len(o)], b1[:len(o)]
	for j := range o {
		o[j] = o[j] + a0*b0[j] + a1*b1[j]
	}
}

func addRows1(o []float64, a0 float64, b0 []float64) {
	b0 = b0[:len(o)]
	for j := range o {
		o[j] = o[j] + a0*b0[j]
	}
}

// MatMulTransB computes a·bᵀ for rank-2 a (m×k) and b (n×k) → (m×n).
func MatMulTransB(a, b *Tensor) *Tensor {
	m, _, n := matDims("MatMulTransB", a, b, false, true)
	out := New(m, n)
	MatMulTransBInto(out, a, b)
	return out
}

// MatMulTransBInto writes a·bᵀ for a (m×k) and b (n×k) into dst (m×n). Four
// outputs share each pass over a's row, each with its own accumulator.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := matDims("MatMulTransBInto", a, b, false, true)
	checkDst("MatMulTransBInto", dst, m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k][:len(arow)]
			b1 := b.Data[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := b.Data[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := b.Data[(j+3)*k : (j+4)*k][:len(arow)]
			var s0, s1, s2, s3 float64
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k][:len(arow)]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
}

// AddMatMulTransBBlocks adds a·bᵀ for a (m×k) and b (n×k) into dst (m×n),
// one block of inner indices at a time: the k inner indices split into
// blocks of block consecutive ones, each block's terms are summed from 0
// in ascending inner index, and each block sum is added to dst in ascending
// block order. That is exactly MatMulTransBInto on each block followed by
// an elementwise add, without the product buffer. dst must not alias a or
// b; block must be positive and divide k.
func AddMatMulTransBBlocks(dst, a, b *Tensor, block int) {
	m, k, n := matDims("AddMatMulTransBBlocks", a, b, false, true)
	checkDst("AddMatMulTransBBlocks", dst, m, n)
	if block <= 0 || k%block != 0 {
		panic(fmt.Sprintf("tensor: AddMatMulTransBBlocks block %d does not divide inner dimension %d", block, k))
	}
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k][:len(arow)]
			b1 := b.Data[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := b.Data[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := b.Data[(j+3)*k : (j+4)*k][:len(arow)]
			g0, g1, g2, g3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
			for lo := 0; lo < k; lo += block {
				ab := arow[lo : lo+block]
				c0, c1, c2, c3 := b0[lo:][:len(ab)], b1[lo:][:len(ab)], b2[lo:][:len(ab)], b3[lo:][:len(ab)]
				var s0, s1, s2, s3 float64
				for kk, av := range ab {
					s0 += av * c0[kk]
					s1 += av * c1[kk]
					s2 += av * c2[kk]
					s3 += av * c3[kk]
				}
				g0 += s0
				g1 += s1
				g2 += s2
				g3 += s3
			}
			orow[j], orow[j+1], orow[j+2], orow[j+3] = g0, g1, g2, g3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k][:len(arow)]
			g := orow[j]
			for lo := 0; lo < k; lo += block {
				ab := arow[lo : lo+block]
				c := brow[lo:][:len(ab)]
				s := 0.0
				for kk, av := range ab {
					s += av * c[kk]
				}
				g += s
			}
			orow[j] = g
		}
	}
}

// Transpose2D returns the transpose of a rank-2 tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires rank-2 operand, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}
