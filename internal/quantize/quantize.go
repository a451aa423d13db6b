// Package quantize implements IEEE-754 binary16 (half precision)
// conversion. The paper's §7.7 stacks a Quantization_Manager on top of APF
// that transmits parameters as 16-bit floats (PyTorch's Tensor.half());
// this package provides the identical numeric semantics.
package quantize

import "math"

// Float64ToHalf converts v to the nearest IEEE binary16 value, with
// round-to-nearest-even, returning its 16-bit encoding. Out-of-range values
// saturate to ±Inf; NaN is preserved.
//
// The rounding works directly on the float64 bits. Going through a float32
// intermediate would round twice, and double rounding is not innocent: an
// input just above a binary16 half-ulp boundary can collapse onto the
// boundary in the float32 step and then break the tie the wrong way (e.g.
// 1+2⁻¹¹+2⁻⁴⁰ must round up to 1+2⁻¹⁰ but lands on 1.0 via float32).
func Float64ToHalf(v float64) uint16 {
	b := math.Float64bits(v)
	sign := uint16(b>>48) & 0x8000
	exp := int(b>>52) & 0x7ff
	mant := b & 0xfffffffffffff

	switch {
	case exp == 0x7ff: // Inf or NaN
		if mant != 0 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7c00
	case exp == 0:
		// float64 subnormals (< 2⁻¹⁰²²) are far below half's smallest
		// subnormal 2⁻²⁴; they (and ±0) underflow to signed zero.
		return sign
	}

	e := exp - 1023 // unbiased exponent
	switch {
	case e >= 16: // ≥ 2¹⁶: past the largest half even before rounding
		return sign | 0x7c00
	case e >= -14:
		// Normal half: keep the top 10 mantissa bits, round on the 42
		// dropped ones. A mantissa carry bumps the exponent, which is the
		// correct result up to and including overflow to Inf (65520
		// rounds to 2¹⁶ → 0x7c00).
		half := sign | uint16(e+15)<<10 | uint16(mant>>42)
		rem := mant & (1<<42 - 1)
		const mid = uint64(1) << 41
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return half
	case e >= -25:
		// Subnormal half: the target is round(|v|·2²⁴) with the implicit
		// leading 1 restored, i.e. (2⁵²|mant) >> (28-e) under RNE. A
		// round-up from 1023 to 1024 lands on the smallest normal half,
		// which the carry again produces naturally. e = -25 covers the
		// boundary with zero: exactly 2⁻²⁵ ties to even (0), anything
		// above it rounds to the smallest subnormal.
		m := mant | 1<<52
		shift := uint(28 - e) // 43 … 53
		half := sign | uint16(m>>shift)
		rem := m & (1<<shift - 1)
		mid := uint64(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return half
	default: // below 2⁻²⁵: closer to zero than to any subnormal
		return sign
	}
}

// HalfToFloat64 decodes a 16-bit IEEE binary16 encoding. Every half but a
// NaN is exact in float64; a NaN keeps its sign and payload, quieted.
func HalfToFloat64(h uint16) float64 {
	e, m := uint64(h>>10)&0x1f, uint64(h&0x3ff)
	bits := (e+1008)<<52 | m<<42 // normal: rebias the exponent, widen the mantissa
	switch e {
	case 0: // ±0 or subnormal: m·2⁻²⁴
		bits = math.Float64bits(float64(m) * 0x1p-24)
	case 0x1f: // ±Inf or NaN
		bits = 0x7ff<<52 | m<<42
		if m != 0 {
			bits |= 1 << 51
		}
	}
	return math.Float64frombits(uint64(h&0x8000)<<48 | bits)
}

// RoundTrip quantizes v through half precision and back, simulating
// transmission of a 16-bit representation.
func RoundTrip(v float64) float64 { return HalfToFloat64(Float64ToHalf(v)) }

// RoundTripSlice quantizes every element of xs in place and returns xs.
func RoundTripSlice(xs []float64) []float64 {
	for i, v := range xs {
		xs[i] = RoundTrip(v)
	}
	return xs
}
