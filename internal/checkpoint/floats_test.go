package checkpoint

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// kernelVector returns n float64s that cycle through the bit patterns a
// conversion could lose — NaN payloads of both signs, quiet and
// signalling, ±0, subnormals, ±Inf, the extremes — between random bits.
func kernelVector(rng *rand.Rand, n int) []float64 {
	specials := []uint64{
		0x7ff8000000000001, 0xfff0000000000001, 0x7ff4000000000abc, 0xffffffffffffffff,
		0, 1 << 63, 1, 0x800fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000,
		math.Float64bits(math.MaxFloat64), math.Float64bits(math.SmallestNonzeroFloat64),
	}
	v := make([]float64, n)
	for i := range v {
		b := rng.Uint64()
		if i%3 == 0 {
			b = specials[(i/3)%len(specials)]
		}
		v[i] = math.Float64frombits(b)
	}
	return v
}

// TestF64KernelMatchesPortable holds PutF64s and GetF64s (a byte copy on
// a little-endian host) to the portable per-scalar loops, bit for bit, at
// lengths 0, 1, odd, and past the 8,192 scalars of one 64 KiB chunk.
func TestF64KernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 7, 8191, 8192, 8193, 3*8192 + 5} {
		v := kernelVector(rng, n)
		got, want := make([]byte, 8*n), make([]byte, 8*n)
		PutF64s(got, v)
		putF64sPortable(want, v)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: PutF64s bytes differ from the portable loop", n)
		}
		back, ref := make([]float64, n), make([]float64, n)
		GetF64s(back, got)
		getF64sPortable(ref, want)
		for i := range v {
			if b := math.Float64bits(back[i]); b != math.Float64bits(ref[i]) || b != math.Float64bits(v[i]) {
				t.Fatalf("n=%d scalar %d: GetF64s %#x, portable %#x, encoded %#x",
					n, i, b, math.Float64bits(ref[i]), math.Float64bits(v[i]))
			}
		}
		if view := F64Bytes(v); nativeLE && n > 0 && !bytes.Equal(view, want) {
			t.Fatalf("n=%d: F64Bytes is not the frame's bytes", n)
		}

		// Through the Writer and Reader, behind a prefix that leaves the
		// words unaligned.
		w := NewWriter([]byte{0xAA})
		w.F64s(v)
		r := NewReader(w.Bytes()[1:])
		dec := r.F64s()
		if err := r.Done(); err != nil || len(dec) != n {
			t.Fatalf("n=%d: Reader got %d scalars, err %v", n, len(dec), err)
		}
		for i := range v {
			if math.Float64bits(dec[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d scalar %d: Reader %#x, want %#x", n, i, math.Float64bits(dec[i]), math.Float64bits(v[i]))
			}
		}
	}
}
