package fl

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Exact order-invariant accumulation.
//
// IEEE float addition is not associative, so a weighted mean computed by
// chaining float adds depends on summation order — and therefore on how
// clients are partitioned across relays in a hierarchical topology. To
// make pre-aggregation bit-exact under ANY client→relay partitioning,
// the canonical weighted mean is defined over an exact integer
// accumulator instead:
//
//	S[j] = Σ_k fix(w_k · c_k[j])      W = Σ_k fix(w_k)
//	mean[j] = float64(S[j]) / float64(W)
//
// where fix(x) is x·2^64 rounded to the nearest signed 128-bit integer
// (ties to even) — i.e. signed fixed point with 64 fractional bits — and
// float64(·) is the correctly-rounded conversion back. Each product is a
// single float64 multiply (deterministic), its conversion is
// deterministic, and 128-bit integer addition is exact, associative, and
// commutative: any arrival order, sharding, or relay grouping of the
// same contributions produces identical bits.
//
// Range and precision: magnitudes below 2^-1022 scale to well under half
// a unit and round to zero; products with |p| ≥ 2^-12 convert exactly
// (53-bit mantissa above the 2^-64 grid); the accumulator holds sums up
// to |Σ| < 2^63, far beyond any sane model geometry — overflow is
// detected and poisons the aggregate loudly rather than wrapping.
//
// Both conversions have a fast path for values below ½ in magnitude, the
// range model parameters and their means live in. The hardware does it
// in a few instructions, with the same bits as the bit-by-bit code, for
// three reasons: x·2^64 is exact (a power-of-two scale of a value that
// stays inside the int64 range); math.RoundToEven of it is the same
// ties-to-even rule; and Go's int64→float64 conversion rounds to nearest
// even by the language spec, after which the ·2^-64 scale is exact again.
// Larger values, NaN and infinities take the bit-by-bit code
// (fixFromFloatWide, fixToFloatWide). The overflow verdict of fixAdd is
// bit arithmetic rather than a branch on operand signs, so a fold loop
// tests one verdict per coordinate and never mispredicts on the data.

// ErrAccumOverflow is returned (wrapped) when an exact accumulator
// overflows its ±2^63 range. A mid-fold overflow poisons the partial
// (sticky): the column state is already half-mutated, so the whole
// aggregate is discarded rather than silently wrong.
var ErrAccumOverflow = errors.New("fl: exact accumulator overflow")

// fixFromFloat converts x into round-to-nearest-even(x·2^64) as a
// two's-complement 128-bit (lo, hi) pair. ok is false when x is
// non-finite or |x| ≥ 2^63 (outside the accumulator's range).
func fixFromFloat(x float64) (lo, hi uint64, ok bool) {
	if lo, hi, ok = fixFromHalf(x); !ok {
		lo, hi, ok = fixFromFloatWide(x)
	}
	return lo, hi, ok
}

// fixFromHalf is fixFromFloat's hardware path for |x| < ½: |x·2^64| <
// 2^63, so the scale is exact and the rounded value fits an int64, whose
// sign extension is the upper word. ok is false for any other x (NaN
// included), which the caller passes to fixFromFloatWide. Unlike
// fixFromFloat it is small enough to inline, so the fold loops call the
// two in turn themselves and keep their state in registers.
func fixFromHalf(x float64) (lo, hi uint64, ok bool) {
	if !(math.Abs(x) < 0.5) {
		return 0, 0, false
	}
	v := int64(math.RoundToEven(x * 0x1p64))
	return uint64(v), uint64(v >> 63), true
}

// fixFromFloatWide is fixFromFloat for any x, bit by bit from the IEEE
// fields.
func fixFromFloatWide(x float64) (lo, hi uint64, ok bool) {
	b := math.Float64bits(x)
	exp := int(b >> 52 & 0x7ff)
	mant := b & (1<<52 - 1)
	if exp == 0x7ff { // NaN or ±Inf
		return 0, 0, false
	}
	if exp == 0 {
		// ±0, or a subnormal (|x| < 2^-1022) whose scaled magnitude is
		// far below half a unit: rounds to zero.
		return 0, 0, true
	}
	mant |= 1 << 52
	shift := exp - 1011 // x·2^64 = ±mant·2^shift, mant ∈ [2^52, 2^53)
	switch {
	case shift >= 75:
		return 0, 0, false // |x| ≥ 2^63
	case shift >= 64:
		hi = mant << (shift - 64)
	case shift >= 0:
		hi = mant >> (64 - shift)
		lo = mant << shift
	case shift >= -53:
		// Fractional tail dropped: round to nearest, ties to even.
		s := uint(-shift)
		r := mant >> s
		if mant>>(s-1)&1 == 1 && (mant&(1<<(s-1)-1) != 0 || r&1 == 1) {
			r++
		}
		lo = r
	default:
		// mant·2^shift < 1/2 strictly: rounds to zero.
	}
	if b>>63 == 1 {
		lo, hi = negate128(lo, hi)
	}
	return lo, hi, true
}

// negate128 returns the two's-complement negation of (lo, hi).
func negate128(lo, hi uint64) (uint64, uint64) {
	nlo, borrow := bits.Sub64(0, lo, 0)
	nhi, _ := bits.Sub64(0, hi, borrow)
	return nlo, nhi
}

// fixAdd adds two signed 128-bit values. ok is false on signed overflow:
// the operands share a sign (top bit of ^(ahi^bhi)) that the result lost
// (top bit of ahi^hi), computed without a branch.
func fixAdd(alo, ahi, blo, bhi uint64) (lo, hi uint64, ok bool) {
	var c uint64
	lo, c = bits.Add64(alo, blo, 0)
	hi, _ = bits.Add64(ahi, bhi, c)
	return lo, hi, (^(ahi^bhi)&(ahi^hi))>>63 == 0
}

// fixToFloat converts a signed 128-bit fixed-point value (64 fractional
// bits) to the nearest float64, ties to even. The rounding decision sees
// the full 128-bit magnitude, so the conversion is correctly rounded.
func fixToFloat(lo, hi uint64) float64 {
	// The value fits an int64 (hi is lo's sign extension): the hardware
	// conversion rounds to nearest even, and the scale by 2^-64 is exact.
	if hi == uint64(int64(lo)>>63) {
		return float64(int64(lo)) * 0x1p-64
	}
	return fixToFloatWide(lo, hi)
}

// fixToFloatWide is fixToFloat for any value, rounding by hand from the
// full 128-bit magnitude.
func fixToFloatWide(lo, hi uint64) float64 {
	neg := int64(hi) < 0
	if neg {
		lo, hi = negate128(lo, hi)
	}
	if hi == 0 && lo == 0 {
		return 0
	}
	var nbits int
	if hi != 0 {
		nbits = 128 - bits.LeadingZeros64(hi)
	} else {
		nbits = 64 - bits.LeadingZeros64(lo)
	}
	mant := lo // nbits ≤ 53 implies hi == 0: the value is already exact
	e2 := 0
	if s := uint(nbits - 53); nbits > 53 {
		var rb, sticky uint64
		switch {
		case s < 64:
			mant = hi<<(64-s) | lo>>s
			rb = lo >> (s - 1) & 1
			sticky = lo & (1<<(s-1) - 1)
		case s == 64:
			mant = hi
			rb = lo >> 63
			sticky = lo &^ (1 << 63)
		default: // 64 < s ≤ 74
			t := s - 64
			mant = hi >> t
			rb = hi >> (t - 1) & 1
			sticky = hi&(1<<(t-1)-1) | lo
		}
		if rb == 1 && (sticky != 0 || mant&1 == 1) {
			mant++
		}
		e2 = int(s)
		if mant == 1<<53 { // carry out of the 53-bit mantissa
			mant >>= 1
			e2++
		}
	}
	f := math.Ldexp(float64(mant), e2-64)
	if neg {
		return -f
	}
	return f
}

// Partial is the mergeable state of an exact weighted sum: per-coordinate
// fixed-point column sums plus the fixed-point total weight and the
// contribution count. Because every field is an exact integer sum,
// partials from any disjoint grouping of the same contributions merge to
// identical bits — the property the hierarchical relay tier rests on.
// Weight and count ride along so weighted FedAvg over merged partials
// equals the flat computation exactly.
type Partial struct {
	// Count is the number of client contributions folded in, transitively
	// through merges.
	Count int
	// WeightLo/WeightHi hold the exact fixed-point total weight
	// (two's complement, 64 fractional bits).
	WeightLo, WeightHi uint64
	// Cols holds the exact per-coordinate sums, two words per coordinate:
	// lo at 2j, hi at 2j+1. Empty until the first fold fixes the
	// dimension.
	Cols []uint64
	// Packed holds the same sums in their packed byte form (packed.go)
	// instead of Cols — how a partial decoded from a wire frame arrives,
	// still aliasing that frame. It is a merge source only: Merge and
	// AppendPacked read it; a partial that accumulates (Fold, Merge's
	// receiver, Mean) keeps its sums in Cols. At most one of the two is
	// non-empty.
	Packed PackedCols

	poisoned bool
}

// Reset clears the partial for reuse, keeping column capacity.
func (p *Partial) Reset() {
	p.Count, p.WeightLo, p.WeightHi = 0, 0, 0
	p.Cols = p.Cols[:0]
	p.Packed = PackedCols{}
	p.poisoned = false
}

// Dim returns the coordinate count (0 until the first fold).
func (p *Partial) Dim() int {
	if p.Packed.dim != 0 {
		return p.Packed.dim
	}
	return len(p.Cols) / 2
}

// Poisoned reports whether an accumulator overflow invalidated the
// partial; a poisoned partial refuses further folds and never aggregates.
func (p *Partial) Poisoned() bool { return p.poisoned }

// adopt sizes the columns for dim coordinates when the partial is still
// empty, zeroing any reused capacity.
func (p *Partial) adopt(dim int) {
	if cap(p.Cols) < 2*dim {
		p.Cols = make([]uint64, 2*dim)
		return
	}
	p.Cols = p.Cols[:2*dim]
	for i := range p.Cols {
		p.Cols[i] = 0
	}
}

// Fold adds one weighted contribution exactly. Validation happens before
// any state changes: non-finite scalars, non-finite or negative weights
// (ErrNonFinite), and payload lengths disagreeing with the partial's
// dimension (ErrLengthMismatch) are rejected cleanly. An accumulator
// overflow mid-fold poisons the partial and returns ErrAccumOverflow.
func (p *Partial) Fold(contrib []float64, weight float64) error {
	if p.poisoned {
		return fmt.Errorf("%w: partial is poisoned", ErrAccumOverflow)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("%w: weight %v", ErrNonFinite, weight)
	}
	if len(p.Cols) != 0 && 2*len(contrib) != len(p.Cols) {
		return fmt.Errorf("%w: payload length %d, partial holds %d",
			ErrLengthMismatch, len(contrib), p.Dim())
	}
	for j, v := range contrib {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: scalar %d is %v", ErrNonFinite, j, v)
		}
	}
	wlo, whi, ok := fixFromFloat(weight)
	if !ok {
		return fmt.Errorf("%w: weight %v", ErrAccumOverflow, weight)
	}
	if len(p.Cols) == 0 && len(contrib) > 0 {
		p.adopt(len(contrib))
	}
	cols := p.Cols[:2*len(contrib)]
	for j, v := range contrib {
		x := weight * v
		plo, phi, pok := fixFromHalf(x) // fixFromFloat, inlined
		if !pok {
			plo, phi, pok = fixFromFloatWide(x)
		}
		c := cols[2*j : 2*j+2 : 2*j+2]
		var sok bool
		c[0], c[1], sok = fixAdd(c[0], c[1], plo, phi)
		if !(pok && sok) {
			p.poisoned = true
			return fmt.Errorf("%w: coordinate %d", ErrAccumOverflow, j)
		}
	}
	if p.WeightLo, p.WeightHi, ok = fixAdd(p.WeightLo, p.WeightHi, wlo, whi); !ok {
		p.poisoned = true
		return fmt.Errorf("%w: total weight", ErrAccumOverflow)
	}
	p.Count++
	return nil
}

// Merge folds another partial in exactly. Integer addition makes the
// result order- and grouping-invariant: merging per-relay partials in any
// order yields the same bits as folding every underlying contribution
// into one flat partial. A dimension disagreement (ErrLengthMismatch), a
// negative count or weight, a poisoned source, or an overflow
// (ErrAccumOverflow, poisoning) is rejected. The source's sums are read
// from q.Cols or, block by block, from q.Packed; every structural check
// runs before the first accumulator word changes.
func (p *Partial) Merge(q *Partial) error {
	if p.poisoned {
		return fmt.Errorf("%w: partial is poisoned", ErrAccumOverflow)
	}
	if q.poisoned {
		return fmt.Errorf("%w: source partial is poisoned", ErrAccumOverflow)
	}
	if q.Count < 0 {
		return fmt.Errorf("fl: merge of partial with negative count %d", q.Count)
	}
	if int64(q.WeightHi) < 0 {
		return fmt.Errorf("%w: negative partial weight", ErrNonFinite)
	}
	if len(q.Cols) != 0 && len(q.Cols)%2 != 0 {
		return fmt.Errorf("fl: merge of partial with odd column length %d", len(q.Cols))
	}
	qdim := q.Dim()
	if len(p.Cols) != 0 && qdim != 0 && len(p.Cols) != 2*qdim {
		return fmt.Errorf("%w: partial dim %d, source dim %d",
			ErrLengthMismatch, p.Dim(), qdim)
	}
	if len(p.Cols) == 0 && qdim != 0 {
		p.adopt(qdim)
	}
	var err error
	if q.Packed.dim != 0 {
		err = p.addPacked(q.Packed)
	} else {
		err = p.addCols(0, q.Cols)
	}
	if err != nil {
		return err
	}
	var ok bool
	if p.WeightLo, p.WeightHi, ok = fixAdd(p.WeightLo, p.WeightHi, q.WeightLo, q.WeightHi); !ok {
		p.poisoned = true
		return fmt.Errorf("%w: total weight", ErrAccumOverflow)
	}
	p.Count += q.Count
	return nil
}

// addCols adds src (lo/hi word pairs) into p.Cols starting at word offset
// at. A signed overflow poisons p.
func (p *Partial) addCols(at int, src []uint64) error {
	dst := p.Cols[at : at+len(src)]
	for j := 0; j+1 < len(src); j += 2 {
		d, s := dst[j:j+2:j+2], src[j:j+2:j+2]
		var ok bool
		if d[0], d[1], ok = fixAdd(d[0], d[1], s[0], s[1]); !ok {
			p.poisoned = true
			return fmt.Errorf("%w: coordinate %d", ErrAccumOverflow, (at+j)/2)
		}
	}
	return nil
}

// CopyFrom overwrites p with q's state, reusing column capacity.
func (p *Partial) CopyFrom(q *Partial) {
	p.Count, p.WeightLo, p.WeightHi = q.Count, q.WeightLo, q.WeightHi
	p.Cols = append(p.Cols[:0], q.Cols...)
	p.Packed = q.Packed
	p.poisoned = q.poisoned
}

// Mean writes the exact weighted mean into dst. Returns false with dst
// untouched when nothing aggregates: zero contributions, a non-positive
// total weight, or a poisoned partial. dst must match the partial's
// dimension.
func (p *Partial) Mean(dst []float64) bool {
	if p.poisoned || p.Count == 0 {
		return false
	}
	if int64(p.WeightHi) < 0 || (p.WeightHi == 0 && p.WeightLo == 0) {
		return false
	}
	if 2*len(dst) != len(p.Cols) {
		panic(fmt.Sprintf("fl: mean into %d coordinates from a %d-dim partial", len(dst), p.Dim()))
	}
	w := fixToFloat(p.WeightLo, p.WeightHi)
	for j := range dst {
		dst[j] = fixToFloat(p.Cols[2*j], p.Cols[2*j+1]) / w
	}
	return true
}
