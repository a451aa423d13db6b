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
// (53-bit mantissa above the 2^-64 grid). No conversion or sum can fail:
// a round folds at most MaxContributors = 2^20 contributions, each
// admitted (checkUpdate) only with its weight and every product finite
// and below 2^43 (ErrNonFinite, ErrAccumOverflow for that contribution
// alone), so each term is below 2^107 and any 2^20 of them sum below
// 2^127. The kernels below take admitted terms only and carry no
// verdict.
//
// Both conversions have a fast path for values below ½ in magnitude, the
// range model parameters and their means live in. The hardware does it
// in a few instructions, with the same bits as the bit-by-bit code, for
// three reasons: x·2^64 is exact (a power-of-two scale of a value that
// stays inside the int64 range); math.RoundToEven of it is the same
// ties-to-even rule; and Go's int64→float64 conversion rounds to nearest
// even by the language spec, after which the ·2^-64 scale is exact again.
// Larger values take the bit-by-bit code (fixFromFloatWide,
// fixToFloatWide).
//
// The folds run that fast path as one tight loop over a span of
// coordinates (addHalves), leaving only the coordinates it stops at to the
// bit-by-bit code one at a time (addSpan). The mean folds a block of a
// few hundred coordinates at a time into columns on the stack,
// contribution by contribution, and converts each column once at the
// end.

// ErrAccumOverflow is returned (wrapped) for an input past the bound that
// keeps every exact sum inside the signed 128-bit range: a weight or a
// weighted product of 2^43 or more, a fold or merge past MaxContributors
// contributions, or a decoded partial sum past its count (SumFits).
var ErrAccumOverflow = errors.New("fl: exact accumulator overflow")

// MaxContributors is the most client contributions one round folds,
// across the whole cluster.
const MaxContributors = 1 << 20

// maxTerm bounds an admitted weight and weighted product: 2^63 / MaxContributors.
const maxTerm = 0x1p43

// fixFromFloat converts x into round-to-nearest-even(x·2^64) as a
// two's-complement 128-bit (lo, hi) pair. x must be finite with |x| <
// 2^63, as every admitted weight and product is.
func fixFromFloat(x float64) (lo, hi uint64) {
	if lo, hi, ok := fixFromHalf(x); ok {
		return lo, hi
	}
	return fixFromFloatWide(x)
}

// fixFromHalf is fixFromFloat's hardware path for |x| < ½: |x·2^64| <
// 2^63, so the scale is exact and the rounded value fits an int64, whose
// sign extension is the upper word. ok is false for any other x (NaN
// included), which the caller passes to fixFromFloatWide.
func fixFromHalf(x float64) (lo, hi uint64, ok bool) {
	if !(math.Abs(x) < 0.5) {
		return 0, 0, false
	}
	v := int64(math.RoundToEven(x * 0x1p64))
	return uint64(v), uint64(v >> 63), true
}

// fixFromFloatWide is fixFromFloat for any x in its range, bit by bit
// from the IEEE fields.
func fixFromFloatWide(x float64) (lo, hi uint64) {
	b := math.Float64bits(x)
	exp := int(b >> 52 & 0x7ff)
	mant := b & (1<<52 - 1)
	if exp == 0 {
		// ±0, or a subnormal (|x| < 2^-1022) whose scaled magnitude is
		// far below half a unit: rounds to zero.
		return 0, 0
	}
	mant |= 1 << 52
	shift := exp - 1011 // x·2^64 = ±mant·2^shift, mant ∈ [2^52, 2^53)
	switch {
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
	return lo, hi
}

// negate128 returns the two's-complement negation of (lo, hi).
func negate128(lo, hi uint64) (uint64, uint64) {
	nlo, borrow := bits.Sub64(0, lo, 0)
	nhi, _ := bits.Sub64(0, hi, borrow)
	return nlo, nhi
}

// fixAdd adds two signed 128-bit values whose sum fits.
func fixAdd(alo, ahi, blo, bhi uint64) (lo, hi uint64) {
	var c uint64
	lo, c = bits.Add64(alo, blo, 0)
	hi, _ = bits.Add64(ahi, bhi, c)
	return lo, hi
}

// addSpan adds fix(w·c[j]) into column j of cols — lo word at 2j, hi at
// 2j+1 — for every j. The work runs in addHalves' tight loop; only a
// coordinate it stops at, a product not below ½, takes the bit-by-bit
// conversion here, one coordinate at a time, so a span of wide products
// costs what it always did and no more.
func addSpan(cols []uint64, c []float64, w float64) {
	for j := 0; j < len(c); j++ {
		x := w * c[j]
		if math.Abs(x) < 0.5 {
			if j += addHalves(cols[2*j:], c[j:], w); j == len(c) {
				break
			}
			x = w * c[j]
		}
		plo, phi := fixFromFloatWide(x)
		col := cols[2*j : 2*j+2 : 2*j+2]
		col[0], col[1] = fixAdd(col[0], col[1], plo, phi)
	}
}

// addHalves is the fold's fast path: fixFromHalf and fixAdd written into
// one loop, which adds fix(w·c[j]) into column j of cols while every
// product is below ½ in magnitude, and returns how many coordinates it
// added; the one it stops at is left untouched. Its only call is
// math.RoundToEven's fallback for hosts without a rounding instruction,
// so its state stays in registers.
func addHalves(cols []uint64, c []float64, w float64) int {
	cols = cols[:2*len(c)]
	for j, v := range c {
		x := w * v
		if !(math.Abs(x) < 0.5) {
			return j
		}
		p := int64(math.RoundToEven(x * 0x1p64))
		col := cols[2*j : 2*j+2 : 2*j+2]
		lo, carry := bits.Add64(col[0], uint64(p), 0)
		col[0], col[1] = lo, col[1]+uint64(p>>63)+carry
	}
	return len(c)
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
}

// Reset clears the partial for reuse, keeping column capacity.
func (p *Partial) Reset() {
	p.Count, p.WeightLo, p.WeightHi = 0, 0, 0
	p.Cols = p.Cols[:0]
	p.Packed = PackedCols{}
}

// Dim returns the coordinate count (0 until the first fold).
func (p *Partial) Dim() int {
	if p.Packed.dim != 0 {
		return p.Packed.dim
	}
	return len(p.Cols) / 2
}

// adopt sizes the columns for dim coordinates when the partial is still
// empty, zeroing any reused capacity.
func (p *Partial) adopt(dim int) {
	if cap(p.Cols) < 2*dim {
		p.Cols = make([]uint64, 2*dim)
		return
	}
	p.Cols = p.Cols[:2*dim]
	clear(p.Cols)
}

// Fold adds one weighted contribution exactly. Every check runs before
// any state changes: a partial already holding MaxContributors
// contributions (ErrAccumOverflow), and whatever checkUpdate refuses.
func (p *Partial) Fold(contrib []float64, weight float64) error {
	if p.Count >= MaxContributors {
		return fmt.Errorf("%w: partial already holds %d contributions", ErrAccumOverflow, p.Count)
	}
	dim := -1
	if len(p.Cols) != 0 {
		dim = p.Dim()
	}
	if err := checkUpdate(contrib, weight, dim); err != nil {
		return err
	}
	p.fold(contrib, weight)
	return nil
}

// checkUpdate refuses a contribution the exact fold cannot take into a
// round whose contributions have length dim (-1 while none is held): a
// non-finite or negative weight or a non-finite scalar (ErrNonFinite), a
// weight or weighted product of 2^43 or more (ErrAccumOverflow), and a
// length other than dim (ErrLengthMismatch).
func checkUpdate(contrib []float64, weight float64, dim int) error {
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("%w: weight %v", ErrNonFinite, weight)
	}
	if weight >= maxTerm {
		return fmt.Errorf("%w: weight %v", ErrAccumOverflow, weight)
	}
	if dim >= 0 && len(contrib) != dim {
		return fmt.Errorf("%w: payload length %d, round holds %d", ErrLengthMismatch, len(contrib), dim)
	}
	if j, err := firstUnfoldable(contrib, weight); err != nil {
		return fmt.Errorf("%w: scalar %d is %v", err, j, contrib[j])
	}
	return nil
}

// fold adds a contribution checkUpdate admitted into a partial below
// MaxContributors.
func (p *Partial) fold(contrib []float64, weight float64) {
	if len(p.Cols) == 0 && len(contrib) > 0 {
		p.adopt(len(contrib))
	}
	addSpan(p.Cols, contrib, weight)
	wlo, whi := fixFromFloat(weight)
	p.WeightLo, p.WeightHi = fixAdd(p.WeightLo, p.WeightHi, wlo, whi)
	p.Count++
}

// Merge folds another partial in exactly. Integer addition makes the
// result order- and grouping-invariant: merging per-relay partials in any
// order yields the same bits as folding every underlying contribution
// into one flat partial. A negative count or weight, a merge past
// MaxContributors contributions (ErrAccumOverflow) and a dimension
// disagreement (ErrLengthMismatch) are refused before the first
// accumulator word changes. The source's sums are read from q.Cols or,
// block by block, from q.Packed, and must lie below q.Count·2^107 in
// magnitude, as those of a folded partial and of a decoded one
// (ParsePacked) do; the merged sums then cannot overflow.
func (p *Partial) Merge(q *Partial) error {
	if q.Count < 0 {
		return fmt.Errorf("fl: merge of partial with negative count %d", q.Count)
	}
	if q.Count > MaxContributors-p.Count {
		return fmt.Errorf("%w: merging %d contributions into %d passes %d",
			ErrAccumOverflow, q.Count, p.Count, MaxContributors)
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
	if q.Packed.dim != 0 {
		p.addPacked(q.Packed)
	} else {
		p.addCols(0, q.Cols)
	}
	p.WeightLo, p.WeightHi = fixAdd(p.WeightLo, p.WeightHi, q.WeightLo, q.WeightHi)
	p.Count += q.Count
	return nil
}

// addCols adds src (lo/hi word pairs) into p.Cols starting at word offset
// at.
func (p *Partial) addCols(at int, src []uint64) {
	dst := p.Cols[at : at+len(src)]
	for j := 0; j+1 < len(src); j += 2 {
		d, s := dst[j:j+2:j+2], src[j:j+2:j+2]
		d[0], d[1] = fixAdd(d[0], d[1], s[0], s[1])
	}
}

// CopyFrom overwrites p with q's state, reusing column capacity.
func (p *Partial) CopyFrom(q *Partial) {
	p.Count, p.WeightLo, p.WeightHi = q.Count, q.WeightLo, q.WeightHi
	p.Cols = append(p.Cols[:0], q.Cols...)
	p.Packed = q.Packed
}

// Mean writes the exact weighted mean into dst. Returns false with dst
// untouched when nothing aggregates: zero contributions or zero total
// weight (Fold and Merge admit no negative one). dst must match the
// partial's dimension.
func (p *Partial) Mean(dst []float64) bool {
	if p.Count == 0 || p.WeightHi|p.WeightLo == 0 {
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
