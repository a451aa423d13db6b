package quantize

import (
	"math"
	"testing"
	"testing/quick"

	"apf/internal/stats"
)

func TestStochasticQuantizeGridAndScale(t *testing.T) {
	q := NewStochasticQuantizer(4, stats.SplitRNG(1, 0))
	xs := []float64{0.5, -2, 1.3, 0}
	scale := q.Quantize(xs)
	if scale != 2 {
		t.Fatalf("scale = %v, want max |x| = 2", scale)
	}
	for i, v := range xs {
		g := v / scale * 4
		if math.Abs(g-math.Round(g)) > 1e-12 {
			t.Errorf("xs[%d] = %v not on the grid", i, v)
		}
		if math.Abs(v) > scale {
			t.Errorf("xs[%d] = %v exceeds the scale", i, v)
		}
	}
	// Zero must stay exactly zero... probabilistically it can round to
	// ±scale/levels only if frac > 0; for v=0, t=0, floor=0, frac=0 → stays 0.
	if xs[3] != 0 {
		t.Errorf("zero value moved to %v", xs[3])
	}
}

func TestStochasticQuantizerValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewStochasticQuantizer(0, stats.SplitRNG(1, 0)) },
		func() { NewStochasticQuantizer(2, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: quantized values stay within one bucket of the original and
// within [-scale, scale].
func TestQuickStochasticBounded(t *testing.T) {
	q := NewStochasticQuantizer(5, stats.SplitRNG(3, 0))
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = math.Mod(v, 1e6)
		}
		orig := append([]float64(nil), xs...)
		scale := q.Quantize(xs)
		bucket := scale / 5
		for i := range xs {
			if math.Abs(xs[i]-orig[i]) > bucket+1e-9 {
				return false
			}
			if math.Abs(xs[i]) > scale+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {9, 4}, {255, 8}, {256, 8}, {257, 9},
	}
	for _, tt := range tests {
		if got := bitsFor(tt.n); got != tt.want {
			t.Errorf("bitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}
