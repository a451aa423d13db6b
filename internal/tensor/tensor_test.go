package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestNewAndSize(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{"scalarish", []int{1}, 1},
		{"vector", []int{5}, 5},
		{"matrix", []int{3, 4}, 12},
		{"rank4", []int{2, 3, 4, 5}, 120},
		{"zero-dim", []int{3, 0, 4}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			x := New(tt.shape...)
			if got := x.Size(); got != tt.want {
				t.Errorf("Size() = %d, want %d", got, tt.want)
			}
			if x.Rank() != len(tt.shape) {
				t.Errorf("Rank() = %d, want %d", x.Rank(), len(tt.shape))
			}
			for _, v := range x.Data {
				if v != 0 {
					t.Fatalf("New not zero-filled: %v", x.Data)
				}
			}
		})
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with mismatched length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7.5 {
		t.Errorf("At(1,2,3) = %v, want 7.5", got)
	}
	// Row-major layout: offset of (1,2,3) in 2x3x4 is 1*12+2*4+3 = 23.
	if x.Data[23] != 7.5 {
		t.Errorf("expected value at flat offset 23, data=%v", x.Data)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	x.At(2, 0)
}

func TestReshape(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.At(2, 1) != 6 {
		t.Errorf("reshape changed element order: %v", y.Data)
	}
	// Views share storage.
	y.Set(99, 0, 0)
	if x.At(0, 0) != 99 {
		t.Error("Reshape must share backing data")
	}
	z := x.Reshape(-1, 2)
	if z.Shape[0] != 3 || z.Shape[1] != 2 {
		t.Errorf("inferred reshape = %v, want [3 2]", z.Shape)
	}
}

func TestReshapeInvalid(t *testing.T) {
	x := New(2, 3)
	for _, shape := range [][]int{{4, 2}, {-1, -1}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reshape(%v) did not panic", shape)
				}
			}()
			x.Reshape(shape...)
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = 42
	if x.Data[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)

	if got := Add(a, b).Data; got[3] != 44 {
		t.Errorf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data; got[0] != 9 {
		t.Errorf("Sub wrong: %v", got)
	}

	c := a.Clone()
	c.Axpy(0.5, b)
	want := []float64{6, 12, 18, 24}
	for i, v := range c.Data {
		if v != want[i] {
			t.Errorf("Axpy[%d] = %v, want %v", i, v, want[i])
		}
	}

	c.Scale(2)
	if c.Data[0] != 12 {
		t.Errorf("Scale wrong: %v", c.Data)
	}
	c.Zero()
	if c.Sum() != 0 {
		t.Errorf("Zero wrong: %v", c.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched shapes did not panic")
		}
	}()
	Add(a, b)
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, 4}, 2)
	if x.Sum() != 7 {
		t.Errorf("Sum = %v", x.Sum())
	}
	if x.Mean() != 3.5 {
		t.Errorf("Mean = %v", x.Mean())
	}
	if !almostEqual(x.Norm2(), 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", x.Norm2())
	}
	empty := New(0)
	if empty.Mean() != 0 {
		t.Error("Mean of empty tensor should be 0")
	}
}

// matMulNaive is the textbook reference implementation.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// TestMatMulAgainstNaive requires bit equality: Randn operands have no
// zeros, so the kernels sum exactly the naive loop's terms in its order.
func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7)
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		want := matMulNaive(a, b)
		requireBits(t, "MatMul", MatMul(a, b), want)
		requireBits(t, "MatMulTransA", MatMulTransA(Transpose2D(a), b), want)
		requireBits(t, "MatMulTransB", MatMulTransB(a, Transpose2D(b)), want)
	}
}

// The plain loops the blocked kernels replaced, kept verbatim as the
// references the kernels must match bit for bit.

func matMulRef(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func matMulTransARef(a, b *Tensor) *Tensor {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.Data[kk*m : (kk+1)*m]
		brow := b.Data[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func matMulTransBRef(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range arow {
				s += av * brow[kk]
			}
			orow[j] = s
		}
	}
	return out
}

// requireBits fails unless got and want hold the same float bits.
func requireBits(t *testing.T, op string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", op, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s %v: element %d is %v (%#x), want %v (%#x)", op, want.Shape, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// specialOperand draws an m×n matrix whose entries are mostly Gaussian but
// include exact zeros (exercising the zero skip), −0, ±Inf and NaN.
func specialOperand(rng *rand.Rand, m, n int) *Tensor {
	x := Randn(rng, 0, 1, m, n)
	for i := range x.Data {
		switch r := rng.Intn(20); {
		case r < 5:
			x.Data[i] = 0
		case r == 5:
			x.Data[i] = math.Copysign(0, -1)
		case r == 6:
			x.Data[i] = math.Inf(1)
		case r == 7:
			x.Data[i] = math.Inf(-1)
		case r == 8:
			x.Data[i] = math.NaN()
		}
	}
	return x
}

// garbage returns an m×n destination pre-filled with values an Into form
// must overwrite.
func garbage(rng *rand.Rand, m, n int) *Tensor {
	d := specialOperand(rng, m, n)
	for i := range d.Data {
		if d.Data[i] == 0 {
			d.Data[i] = 1e300
		}
	}
	return d
}

// TestMatMulKernelsBitExact holds the blocked kernels and their Into forms
// to the reference loops bit for bit, over every blocking remainder (k up
// to 13, so k mod 4 takes all values) and operands full of the IEEE cases
// where skipping or reordering a term would show: 0·Inf, NaN, −0.
func TestMatMulKernelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 400; trial++ {
		m, n, k := 1+rng.Intn(9), 1+rng.Intn(9), 1+rng.Intn(13)

		a, b := specialOperand(rng, m, k), specialOperand(rng, k, n)
		want := matMulRef(a, b)
		requireBits(t, "MatMul", MatMul(a, b), want)
		dst := garbage(rng, m, n)
		MatMulInto(dst, a, b)
		requireBits(t, "MatMulInto", dst, want)

		at := specialOperand(rng, k, m)
		want = matMulTransARef(at, b)
		requireBits(t, "MatMulTransA", MatMulTransA(at, b), want)
		dst = garbage(rng, m, n)
		MatMulTransAInto(dst, at, b)
		requireBits(t, "MatMulTransAInto", dst, want)

		bt := specialOperand(rng, n, k)
		want = matMulTransBRef(a, bt)
		requireBits(t, "MatMulTransB", MatMulTransB(a, bt), want)
		dst = garbage(rng, m, n)
		MatMulTransBInto(dst, a, bt)
		requireBits(t, "MatMulTransBInto", dst, want)
	}
}

// addMatMulTransBBlocksRef is AddMatMulTransBBlocks' plain loop: each
// block's terms summed from 0, each block sum added to dst in block order.
func addMatMulTransBBlocksRef(dst, a, b *Tensor, block int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for lo := 0; lo < k; lo += block {
				s := 0.0
				for kk := lo; kk < lo+block; kk++ {
					s += a.Data[i*k+kk] * b.Data[j*k+kk]
				}
				dst.Data[i*n+j] += s
			}
		}
	}
}

// sameFloat reports whether x and y hold the same bits, counting any two
// NaNs alike: when both operands of a sum are NaN, which payload the result
// carries is left to the compiler's choice of operand order (Go does not
// specify it), so payloads are not part of any result.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

// TestAddMatMulTransBBlocksBitExact holds the block-sum kernel to its plain
// loop bit for bit, over every remainder of n mod 4, blocks of one inner
// index up to the whole of k, and operands and starting sums full of the
// IEEE cases (−0 + +0, Inf − Inf, NaN) where reordering a sum would show.
func TestAddMatMulTransBBlocksBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 400; trial++ {
		m, n := 1+rng.Intn(9), 1+rng.Intn(9)
		block, blocks := 1+rng.Intn(6), 1+rng.Intn(5)
		k := block * blocks
		a, b := specialOperand(rng, m, k), specialOperand(rng, n, k)
		want := specialOperand(rng, m, n)
		got := want.Clone()
		addMatMulTransBBlocksRef(want, a, b, block)
		AddMatMulTransBBlocks(got, a, b, block)
		for i := range want.Data {
			if !sameFloat(got.Data[i], want.Data[i]) {
				t.Fatalf("AddMatMulTransBBlocks %v block %d: element %d is %v, want %v", want.Shape, block, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulShapeChecks(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{"inner mismatch", func() { MatMul(New(2, 3), New(4, 2)) }},
		{"rank", func() { MatMul(New(2, 3, 1), New(3, 2)) }},
		{"transA inner", func() { MatMulTransA(New(2, 3), New(3, 2)) }},
		{"transB inner", func() { MatMulTransB(New(2, 3), New(2, 4)) }},
		{"into dst", func() { MatMulInto(New(3, 2), New(2, 3), New(3, 2)) }},
		{"transA into dst", func() { MatMulTransAInto(New(2, 3), New(3, 2), New(3, 2)) }},
		{"transB into dst", func() { MatMulTransBInto(New(2, 1), New(2, 3), New(2, 3)) }},
		{"blocks dst", func() { AddMatMulTransBBlocks(New(2, 1), New(2, 4), New(2, 4), 2) }},
		{"blocks inner", func() { AddMatMulTransBBlocks(New(2, 2), New(2, 4), New(2, 3), 1) }},
		{"block divides", func() { AddMatMulTransBBlocks(New(2, 2), New(2, 6), New(2, 6), 4) }},
		{"block positive", func() { AddMatMulTransBBlocks(New(2, 2), New(2, 6), New(2, 6), 0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 {
		t.Fatalf("transpose shape %v", at.Shape)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v", at.Data)
	}
}

func TestFillRandnStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(20000)
	x.FillRandn(rng, 2, 3)
	mean := x.Mean()
	if math.Abs(mean-2) > 0.1 {
		t.Errorf("sample mean %v too far from 2", mean)
	}
	varSum := 0.0
	for _, v := range x.Data {
		varSum += (v - mean) * (v - mean)
	}
	std := math.Sqrt(varSum / float64(x.Size()))
	if math.Abs(std-3) > 0.15 {
		t.Errorf("sample std %v too far from 3", std)
	}
}

func TestFillUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(1000)
	x.FillUniform(rng, -2, 5)
	for _, v := range x.Data {
		if v < -2 || v >= 5 {
			t.Fatalf("uniform sample %v out of [-2,5)", v)
		}
	}
}

// Property: Dot is symmetric and matches Norm2 on self-products.
func TestQuickDotProperties(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				vals[i] = math.Mod(v, 1000)
				if math.IsNaN(vals[i]) {
					vals[i] = 0
				}
			}
		}
		a := FromSlice(vals, len(vals))
		b := a.Clone()
		b.Scale(2)
		if !almostEqual(Dot(a, b), Dot(b, a), 1e-9) {
			return false
		}
		n := a.Norm2()
		return almostEqual(Dot(a, a), n*n, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Add then Sub is the identity.
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		sanitize := func(s []float64) []float64 {
			out := make([]float64, n)
			for i := 0; i < n; i++ {
				v := s[i]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 1
				}
				out[i] = math.Mod(v, 1e6)
			}
			return out
		}
		a := FromSlice(sanitize(xs), n)
		b := FromSlice(sanitize(ys), n)
		back := Sub(Add(a, b), b)
		for i := range a.Data {
			if !almostEqual(back.Data[i], a.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC.
func TestQuickMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(rng, 0, 1, m, k)
		b := Randn(rng, 0, 1, k, n)
		c := Randn(rng, 0, 1, k, n)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		for i := range left.Data {
			if !almostEqual(left.Data[i], right.Data[i], 1e-9) {
				t.Fatalf("distributivity failed at trial %d", trial)
			}
		}
	}
}

func TestFullOnesString(t *testing.T) {
	f := Full(2.5, 2, 2)
	for _, v := range f.Data {
		if v != 2.5 {
			t.Fatal("Full wrong")
		}
	}
	o := Ones(3)
	if o.Sum() != 3 {
		t.Fatal("Ones wrong")
	}
	s := o.String()
	if !strings.Contains(s, "Tensor[3]") {
		t.Errorf("String = %q", s)
	}
	big := New(100)
	if !strings.Contains(big.String(), "...") {
		t.Error("large tensor String should truncate")
	}
}

func TestCopyFromFillDim(t *testing.T) {
	a := New(2, 2)
	b := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	a.CopyFrom(b)
	if a.At(1, 1) != 4 {
		t.Fatal("CopyFrom wrong")
	}
	a.Fill(7)
	if a.Sum() != 28 {
		t.Fatal("Fill wrong")
	}
	if a.Dim(0) != 2 || a.Rank() != 2 {
		t.Fatal("Dim/Rank wrong")
	}
}

func TestNegativeShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dimension did not panic")
		}
	}()
	New(2, -1)
}
