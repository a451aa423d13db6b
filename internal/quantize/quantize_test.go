package quantize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	tests := []struct {
		name string
		v    float64
		bits uint16
	}{
		{"zero", 0, 0x0000},
		{"neg zero", math.Copysign(0, -1), 0x8000},
		{"one", 1, 0x3c00},
		{"neg one", -1, 0xbc00},
		{"two", 2, 0x4000},
		{"half", 0.5, 0x3800},
		{"max half", 65504, 0x7bff},
		{"smallest normal", 6.103515625e-05, 0x0400},
		{"smallest subnormal", 5.960464477539063e-08, 0x0001},
		{"inf", math.Inf(1), 0x7c00},
		{"neg inf", math.Inf(-1), 0xfc00},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Float64ToHalf(tt.v); got != tt.bits {
				t.Errorf("Float64ToHalf(%v) = %#04x, want %#04x", tt.v, got, tt.bits)
			}
			back := HalfToFloat64(tt.bits)
			if math.IsInf(tt.v, 0) {
				if !math.IsInf(back, int(math.Copysign(1, tt.v))) {
					t.Errorf("HalfToFloat64(%#04x) = %v", tt.bits, back)
				}
				return
			}
			if back != tt.v {
				t.Errorf("HalfToFloat64(%#04x) = %v, want %v", tt.bits, back, tt.v)
			}
		})
	}
}

func TestNaNPreserved(t *testing.T) {
	h := Float64ToHalf(math.NaN())
	if !math.IsNaN(HalfToFloat64(h)) {
		t.Error("NaN not preserved")
	}
}

func TestOverflowSaturates(t *testing.T) {
	if !math.IsInf(RoundTrip(1e6), 1) {
		t.Error("large positive should saturate to +Inf")
	}
	if !math.IsInf(RoundTrip(-1e6), -1) {
		t.Error("large negative should saturate to -Inf")
	}
}

func TestUnderflowToZero(t *testing.T) {
	if got := RoundTrip(1e-12); got != 0 {
		t.Errorf("tiny value should flush to 0, got %v", got)
	}
}

func TestRoundTripSlice(t *testing.T) {
	xs := []float64{0.1, -3.25, 100}
	RoundTripSlice(xs)
	if xs[1] != -3.25 {
		t.Error("exactly representable value changed")
	}
	if math.Abs(xs[0]-0.1) > 1e-4 {
		t.Errorf("0.1 quantized too coarsely: %v", xs[0])
	}
}

// Property: round trip is idempotent and the relative error of normal-range
// values is within half precision's 2^-11 bound.
func TestQuickRoundTripError(t *testing.T) {
	f := func(raw float64) bool {
		v := math.Mod(raw, 60000)
		if math.IsNaN(v) {
			v = 1
		}
		q := RoundTrip(v)
		if RoundTrip(q) != q {
			return false // must be idempotent
		}
		if v == 0 {
			return q == 0
		}
		if math.Abs(v) < 6.2e-05 {
			// Subnormal range: absolute error bounded by one subnormal ulp.
			return math.Abs(q-v) <= 6e-8
		}
		return math.Abs(q-v)/math.Abs(v) <= 1.0/2048
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: quantization is monotone (order-preserving).
func TestQuickMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 60000)
		b = math.Mod(b, 60000)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return RoundTrip(a) <= RoundTrip(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzHalfBits checks that decoding any 16-bit pattern and re-encoding it
// is the identity (modulo NaN payload canonicalization): the fp16 codec
// never corrupts representable values.
func FuzzHalfBits(f *testing.F) {
	for _, seed := range []uint16{0, 1, 0x3c00, 0x7c00, 0x8000, 0xfc00, 0x7e00, 0xffff, 0x0400, 0x7bff} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h uint16) {
		v := HalfToFloat64(h)
		back := Float64ToHalf(v)
		if math.IsNaN(v) {
			if !math.IsNaN(HalfToFloat64(back)) {
				t.Fatalf("NaN %#04x did not survive round trip (got %#04x)", h, back)
			}
			return
		}
		if back != h {
			t.Fatalf("half bits %#04x -> %v -> %#04x", h, v, back)
		}
	})
}

// FuzzHalfValue checks that arbitrary float64 inputs never panic and
// always produce a representable (or saturated) result: RoundTrip is
// idempotent. Sparse-q16 commit rounding relies on it — the committed
// value must equal what a q16 client decodes from its sparse global.
func FuzzHalfValue(f *testing.F) {
	for _, seed := range []float64{0, 1, -1, 0.1, 65504, 65520, 1e-8, -1e300, math.Inf(1)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		q := RoundTrip(v)
		if math.IsNaN(v) {
			if !math.IsNaN(q) {
				t.Fatal("NaN lost")
			}
			return
		}
		if RoundTrip(q) != q {
			t.Fatalf("not idempotent: %v -> %v -> %v", v, q, RoundTrip(q))
		}
	})
}

// TestExhaustiveHalfRoundTrip drives every one of the 65536 binary16 bit
// patterns through decode→encode. Non-NaN patterns must survive exactly;
// NaN payloads canonicalize to the quiet NaN of their sign.
func TestExhaustiveHalfRoundTrip(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		v := HalfToFloat64(h)
		back := Float64ToHalf(v)
		if math.IsNaN(v) {
			if want := h&0x8000 | 0x7e00; back != want {
				t.Fatalf("NaN %#04x re-encoded as %#04x, want %#04x", h, back, want)
			}
			continue
		}
		if back != h {
			t.Fatalf("half %#04x -> %v -> %#04x", h, v, back)
		}
	}
}

// TestHalfToFloat64Exact decodes every finite binary16 pattern to exactly
// ±(1 + m/1024)·2^(e−15) (normal) or ±m·2^−24 (subnormal).
func TestHalfToFloat64Exact(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := uint16(i)
		e, m := int(h>>10&0x1f), float64(h&0x3ff)
		if e == 0x1f {
			continue
		}
		want := math.Ldexp(m, -24)
		if e > 0 {
			want = math.Ldexp(1+m/1024, e-15)
		}
		if h&0x8000 != 0 {
			want = -want
		}
		if got := HalfToFloat64(h); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("half %#04x decoded to %v (%#x), want %v", h, got, math.Float64bits(got), want)
		}
	}
}

// TestDirectRoundingBoundaries pins inputs near binary16 half-ulp
// boundaries where rounding through a float32 intermediate double-rounds
// to the wrong half. These cases fail on the pre-fix converter.
func TestDirectRoundingBoundaries(t *testing.T) {
	exp2 := func(e int) float64 { return math.Ldexp(1, e) }
	tests := []struct {
		name string
		v    float64
		bits uint16
	}{
		// 1 + 2⁻¹¹ is the exact midpoint between 1.0 (0x3c00) and
		// 1+2⁻¹⁰ (0x3c01); the extra 2⁻⁴⁰ pushes it strictly above the
		// midpoint, so RNE must round up. float32 first collapses the
		// value onto the midpoint (2⁻⁴⁰ is below float32's half-ulp at
		// 1.0) and then ties-to-even lands on 0x3c00 — off by one ulp.
		{"just above midpoint rounds up", 1 + exp2(-11) + exp2(-40), 0x3c01},
		{"exact midpoint ties to even", 1 + exp2(-11), 0x3c00},
		{"next interval midpoint ties to even", 1 + 3*exp2(-11), 0x3c02},
		{"just below midpoint rounds down", 1 + exp2(-11) - exp2(-40), 0x3c00},
		{"negative mirror", -(1 + exp2(-11) + exp2(-40)), 0xbc01},
		// Same hazard at the zero/subnormal boundary: 2⁻²⁵ is the exact
		// midpoint between 0 and the smallest subnormal 2⁻²⁴; a hair
		// above it must produce 0x0001, which the float32 detour loses.
		{"subnormal boundary exact tie", exp2(-25), 0x0000},
		{"just above subnormal boundary", exp2(-25) + exp2(-60), 0x0001},
		// Largest-half boundary: 65520 = midpoint(65504, 65536) ties up
		// into the carry → Inf; just below stays at 65504.
		{"overflow midpoint carries to inf", 65520, 0x7c00},
		{"just below overflow midpoint", 65520 - exp2(-20), 0x7bff},
		// Subnormal interior midpoint: 3·2⁻²⁵ = midpoint(2⁻²⁴, 2⁻²³)
		// ties to even (0x0002); just above must round up from the tie.
		{"subnormal midpoint ties to even", 3 * exp2(-25), 0x0002},
		{"subnormal just above midpoint", 3*exp2(-25) + exp2(-70), 0x0002},
		// float64 subnormals underflow to signed zero.
		{"f64 subnormal flushes to zero", exp2(-1030), 0x0000},
		{"negative f64 subnormal keeps sign", -exp2(-1030), 0x8000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Float64ToHalf(tt.v); got != tt.bits {
				t.Errorf("Float64ToHalf(%g) = %#04x, want %#04x", tt.v, got, tt.bits)
			}
		})
	}
}
