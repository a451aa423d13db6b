package fl

import (
	"errors"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// fixToBig interprets a two's-complement (lo, hi) pair as a big.Int.
func fixToBig(lo, hi uint64) *big.Int {
	neg := int64(hi) < 0
	if neg {
		lo, hi = negate128(lo, hi)
	}
	n := new(big.Int).SetUint64(hi)
	n.Lsh(n, 64)
	n.Or(n, new(big.Int).SetUint64(lo))
	if neg {
		n.Neg(n)
	}
	return n
}

// TestFixFromFloatCorrectlyRounded checks fixFromFloat against exact
// rational arithmetic over its range (finite, |x| < 2^63): the returned
// integer must be within half a unit of x·2^64, with exact ties resolved
// to the even integer.
func TestFixFromFloatCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	two64 := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 64))
	half := big.NewRat(1, 2)

	check := func(x float64) {
		lo, hi := fixFromFloat(x)
		got := fixToBig(lo, hi)
		exact := new(big.Rat).SetFloat64(x)
		exact.Mul(exact, two64)
		diff := new(big.Rat).Sub(exact, new(big.Rat).SetInt(got))
		ad := new(big.Rat).Abs(diff)
		switch ad.Cmp(half) {
		case 1:
			t.Fatalf("fixFromFloat(%v) = %v, off by %v units (> 1/2)", x, got, ad.FloatString(4))
		case 0:
			if got.Bit(0) != 0 {
				t.Fatalf("fixFromFloat(%v) = %v broke the tie toward odd", x, got)
			}
		}
	}

	check(0)
	check(math.Copysign(0, -1))
	check(1)
	check(-1)
	check(0x1p-64)  // one unit exactly
	check(0x3p-65)  // tie at 1.5 units: must round to 2 (even)
	check(-0x3p-65) // negative tie
	check(0x1p-65)  // tie at half a unit: must round to 0
	check(0x1p-1040)
	check(5e-324) // smallest subnormal: rounds to zero
	check(math.Nextafter(0x1p62, 0))
	check(-math.Nextafter(0x1p63, 0))
	for i := 0; i < 20000; i++ {
		check(math.Ldexp(rng.NormFloat64(), rng.Intn(131)-70))
	}
}

// TestFixAddMatchesBig drives fixAdd with random signed 128-bit values
// whose sum fits and checks the sum against big.Int.
func TestFixAddMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lim := new(big.Int).Lsh(big.NewInt(1), 127)
	negLim := new(big.Int).Neg(lim)
	randFix := func() (uint64, uint64) {
		lo, hi := rng.Uint64(), rng.Uint64()
		// Mix magnitudes: small positive, small negative, any.
		switch rng.Intn(3) {
		case 0:
			hi &= 0xffff
		case 1:
			hi |= 0xffff_0000_0000_0000
		}
		return lo, hi
	}
	checked := 0
	check := func(alo, ahi, blo, bhi uint64) {
		t.Helper()
		want := new(big.Int).Add(fixToBig(alo, ahi), fixToBig(blo, bhi))
		if want.Cmp(lim) >= 0 || want.Cmp(negLim) < 0 {
			return // outside fixAdd's domain: admission keeps every sum inside
		}
		checked++
		if lo, hi := fixAdd(alo, ahi, blo, bhi); fixToBig(lo, hi).Cmp(want) != 0 {
			t.Fatalf("fixAdd = %v, want %v", fixToBig(lo, hi), want)
		}
	}
	for i := 0; i < 50000; i++ {
		alo, ahi := randFix()
		blo, bhi := randFix()
		check(alo, ahi, blo, bhi)
		// Operands of opposite sign always fit.
		check(alo, ahi, blo, bhi&^(1<<63)|^ahi&(1<<63))
	}
	if checked < 50000 {
		t.Fatalf("only %d sums inside the range", checked)
	}
	const maxHi, minHi = 1<<63 - 1, 1 << 63
	for _, c := range [][4]uint64{
		{^uint64(0), maxHi, 0, 0},                // max + 0
		{0, minHi, 0, 0},                         // min + 0
		{0, minHi, ^uint64(0), maxHi},            // min + max = −1 unit
		{^uint64(0), maxHi - 1, 1, 0},            // a carry out of the low word
		{1 << 63, 1<<62 - 1, 1 << 63, 1<<62 - 1}, // just below the top, doubled: fits
		{0, 1 << 62, ^uint64(0), 1<<62 - 1},      // 2^126 + (2^126 − 1 unit) = max
		{0, 3 << 62, 0, 3 << 62},                 // −2^126 − 2^126 = −2^127 = min
	} {
		check(c[0], c[1], c[2], c[3])
	}
}

// TestFixToFloatCorrectlyRounded checks fixToFloat against big.Float's
// correctly-rounded conversion, and that values on the float grid
// round-trip exactly.
func TestFixToFloatCorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(lo, hi uint64) {
		got := fixToFloat(lo, hi)
		bf := new(big.Float).SetPrec(200).SetInt(fixToBig(lo, hi))
		bf.Quo(bf, new(big.Float).SetPrec(200).SetInt(new(big.Int).Lsh(big.NewInt(1), 64)))
		want, _ := bf.Float64()
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("fixToFloat(%v) = %v, want %v", fixToBig(lo, hi), got, want)
		}
	}
	check(0, 0)
	check(1, 0)
	check(^uint64(0), ^uint64(0)) // -1 unit
	check(0, 1)
	check(0, 0x8000_0000_0000_0000) // most negative
	for i := 0; i < 50000; i++ {
		lo, hi := rng.Uint64(), rng.Uint64()
		switch rng.Intn(4) {
		case 0:
			hi = 0
		case 1:
			hi &= 0xff
		case 2:
			hi |= ^uint64(0xff)
		}
		check(lo, hi)
	}

	// Grid round-trip: |x| ≥ 2^-12 converts exactly, so to-fix-and-back
	// is the identity.
	for i := 0; i < 20000; i++ {
		x := math.Ldexp(rng.NormFloat64(), rng.Intn(70)-10)
		if math.Abs(x) < 0x1p-12 || math.Abs(x) >= 0x1p62 {
			continue
		}
		lo, hi := fixFromFloat(x)
		if y := fixToFloat(lo, hi); y != x {
			t.Fatalf("round trip %v -> %v", x, y)
		}
	}
}

// TestPartialPartitionInvariance is the property the relay tier rests
// on: folding clients into per-group partials and merging the groups in
// any order is bit-identical to folding everything into one flat
// partial, for any random partitioning.
func TestPartialPartitionInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const dim = 257
	for trial := 0; trial < 40; trial++ {
		clients := 2 + rng.Intn(30)
		groups := 1 + rng.Intn(6)
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		for k := range contribs {
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				contribs[k][j] = math.Ldexp(rng.NormFloat64(), rng.Intn(30)-15)
			}
			weights[k] = rng.Float64()*10 + 0.01
		}

		var flat Partial
		for _, k := range rng.Perm(clients) { // arrival order must not matter
			if err := flat.Fold(contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}

		parts := make([]Partial, groups)
		for k := range contribs {
			g := rng.Intn(groups)
			if err := parts[g].Fold(contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		var merged Partial
		for _, g := range rng.Perm(groups) { // merge order must not matter
			if err := merged.Merge(&parts[g]); err != nil {
				t.Fatal(err)
			}
		}

		if merged.Count != flat.Count || merged.WeightLo != flat.WeightLo || merged.WeightHi != flat.WeightHi {
			t.Fatalf("trial %d: merged (count=%d w=%d,%d) != flat (count=%d w=%d,%d)",
				trial, merged.Count, merged.WeightLo, merged.WeightHi, flat.Count, flat.WeightLo, flat.WeightHi)
		}
		for i := range flat.Cols {
			if merged.Cols[i] != flat.Cols[i] {
				t.Fatalf("trial %d: column word %d differs", trial, i)
			}
		}
		got := make([]float64, dim)
		want := make([]float64, dim)
		if !merged.Mean(got) || !flat.Mean(want) {
			t.Fatalf("trial %d: Mean failed", trial)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: mean[%d] = %v, want %v", trial, j, got[j], want[j])
			}
		}
	}
}

// TestPartialMeanMatchesBig cross-checks the whole pipeline (fold,
// merge, mean) against exact rational arithmetic: the computed mean must
// equal round(round(S)/round(W)) where S and W are the true fixed-point
// sums.
func TestPartialMeanMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const dim, clients = 31, 9
	var p Partial
	sums := make([]*big.Int, dim)
	for j := range sums {
		sums[j] = new(big.Int)
	}
	wsum := new(big.Int)
	for k := 0; k < clients; k++ {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64() * 3
		}
		w := rng.Float64() + 0.05
		if err := p.Fold(c, w); err != nil {
			t.Fatal(err)
		}
		for j, v := range c {
			lo, hi := fixFromFloat(w * v)
			sums[j].Add(sums[j], fixToBig(lo, hi))
		}
		lo, hi := fixFromFloat(w)
		wsum.Add(wsum, fixToBig(lo, hi))
	}
	for j := 0; j < dim; j++ {
		if fixToBig(p.Cols[2*j], p.Cols[2*j+1]).Cmp(sums[j]) != 0 {
			t.Fatalf("column %d: partial %v, big %v", j, fixToBig(p.Cols[2*j], p.Cols[2*j+1]), sums[j])
		}
	}
	if fixToBig(p.WeightLo, p.WeightHi).Cmp(wsum) != 0 {
		t.Fatalf("weight: partial %v, big %v", fixToBig(p.WeightLo, p.WeightHi), wsum)
	}
	got := make([]float64, dim)
	if !p.Mean(got) {
		t.Fatal("Mean failed")
	}
	wf := fixToFloat(p.WeightLo, p.WeightHi)
	for j := range got {
		want := fixToFloat(p.Cols[2*j], p.Cols[2*j+1]) / wf
		if got[j] != want {
			t.Fatalf("mean[%d] = %v, want %v", j, got[j], want)
		}
	}
}

// TestPartialRejections pins the validation semantics: every reject
// leaves no trace, a contribution is refused for overflow only when its own
// weight or product reaches 2^43 or the partial already holds
// MaxContributors, and empty or zero-weight partials refuse to aggregate.
func TestPartialRejections(t *testing.T) {
	var p Partial
	good := []float64{1, 2}
	if err := p.Fold(good, 1); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		contrib []float64
		weight  float64
		want    error
	}{
		{"nan scalar", []float64{math.NaN(), 0}, 1, ErrNonFinite},
		{"inf scalar", []float64{0, math.Inf(1)}, 1, ErrNonFinite},
		{"nan weight", good, math.NaN(), ErrNonFinite},
		{"negative weight", good, -1, ErrNonFinite},
		{"length mismatch", []float64{1}, 1, ErrLengthMismatch},
		{"huge weight", good, 0x1p70, ErrAccumOverflow},
		{"weight at the bound", good, 0x1p43, ErrAccumOverflow},
		{"product at the bound", []float64{0, 0x1p42}, 2, ErrAccumOverflow},
		{"scalar of -2^61", []float64{-0x1p61, 0}, 1, ErrAccumOverflow},
	} {
		cols := slices.Clone(p.Cols)
		if err := p.Fold(tc.contrib, tc.weight); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if p.Count != 1 || !slices.Equal(p.Cols, cols) {
			t.Fatalf("%s: reject mutated state (count=%d)", tc.name, p.Count)
		}
	}
	below := math.Nextafter(0x1p43, 0)
	if err := p.Fold([]float64{-1, 1}, below); err != nil {
		t.Fatalf("weight just below the bound: %v", err)
	}

	// The contribution bound: a partial holding MaxContributors refuses a
	// fold, and a merge may not take the count past it.
	q := Partial{Count: MaxContributors - 1}
	if err := q.Fold(good, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Fold(good, 1); !errors.Is(err, ErrAccumOverflow) || q.Count != MaxContributors {
		t.Fatalf("fold past the contribution bound: err = %v, count %d", err, q.Count)
	}
	r := Partial{Count: 1}
	if err := r.Merge(&Partial{Count: MaxContributors}); !errors.Is(err, ErrAccumOverflow) || r.Count != 1 {
		t.Fatalf("merge past the contribution bound: err = %v, count %d", err, r.Count)
	}

	// Nothing to aggregate: empty, and zero total weight.
	var empty Partial
	if empty.Mean(nil) {
		t.Fatal("empty partial aggregated")
	}
	var zw Partial
	if err := zw.Fold(good, 0); err != nil {
		t.Fatal(err)
	}
	dst := []float64{7, 7}
	if zw.Mean(dst) {
		t.Fatal("zero-weight partial aggregated")
	}
	if dst[0] != 7 || dst[1] != 7 {
		t.Fatal("failed Mean touched dst")
	}

	// Hostile merge inputs: negative count, negative weight, odd columns,
	// dimension disagreement.
	var h Partial
	if err := h.Merge(&Partial{Count: -1}); err == nil {
		t.Fatal("negative count merged")
	}
	if err := h.Merge(&Partial{Count: 1, WeightHi: 1 << 63}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("negative weight merge err = %v", err)
	}
	if err := h.Merge(&Partial{Count: 1, Cols: make([]uint64, 3)}); err == nil {
		t.Fatal("odd column count merged")
	}
	if err := h.Fold(good, 1); err != nil {
		t.Fatal(err)
	}
	if err := h.Merge(&Partial{Count: 1, Cols: make([]uint64, 6)}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("dim mismatch merge err = %v", err)
	}

	// Reset clears everything for reuse.
	q.Reset()
	if q.Count != 0 || q.WeightLo|q.WeightHi != 0 || len(q.Cols) != 0 {
		t.Fatalf("Reset left state: %+v", q)
	}
	if err := q.Fold(good, 2); err != nil {
		t.Fatal(err)
	}
}

// refFixFromFloat and refFixToFloat are the bit-by-bit conversions as
// they stood before the hardware fast paths, kept verbatim as the
// reference those paths must match bit for bit.
func refFixFromFloat(x float64) (lo, hi uint64, ok bool) {
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

func refFixToFloat(lo, hi uint64) float64 {
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

// TestFixFromFloatMatchesReference drives fixFromFloat and the reference
// over every exponent band of its range (random mantissas and signs), raw
// random bit patterns inside the range, and a boundary table, requiring
// identical words. Boundary values are also checked against exact rational
// arithmetic.
func TestFixFromFloatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	check := func(x float64) {
		t.Helper()
		lo, hi := fixFromFloat(x)
		rlo, rhi, rok := refFixFromFloat(x)
		if !rok || lo != rlo || hi != rhi {
			t.Fatalf("fixFromFloat(%v [%#016x]) = (%#x, %#x), reference (%#x, %#x, %v)",
				x, math.Float64bits(x), lo, hi, rlo, rhi, rok)
		}
	}
	// Every biased exponent below 2^63's (1086), so each conversion path
	// and both sides of the ½ fast-path bound see random mantissas.
	const perBand = 500
	for exp := uint64(0); exp < 1086; exp++ {
		for i := 0; i < perBand; i++ {
			check(math.Float64frombits(rng.Uint64()&(1<<63|1<<52-1) | exp<<52))
		}
	}
	for i := 0; i < 1_000_000; i++ {
		if x := math.Float64frombits(rng.Uint64()); math.Abs(x) < 0x1p63 {
			check(x)
		}
	}

	half := 0.5
	belowHalf := math.Nextafter(half, 0)
	exact := []float64{
		0, math.Copysign(0, -1),
		belowHalf, -belowHalf, half, -half,
		0x1p-65, -0x1p-65, 0x3p-65, -0x3p-65, 0x5p-65, -0x5p-65, // ties at odd multiples of 2^-65
		0x1fffffffffffffp-65, -0x1fffffffffffffp-65, // 53-bit odd multiple of 2^-65 below ½
		5e-324, -5e-324, // smallest subnormal
		math.Nextafter(0x1p63, 0), -math.Nextafter(0x1p63, 0),
	}
	for _, x := range exact {
		check(x)
		lo, hi := fixFromFloat(x)
		want := new(big.Rat).Mul(new(big.Rat).SetFloat64(x), new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 64)))
		got := new(big.Rat).SetInt(fixToBig(lo, hi))
		d := new(big.Rat).Abs(new(big.Rat).Sub(want, got))
		if c := d.Cmp(big.NewRat(1, 2)); c > 0 || c == 0 && fixToBig(lo, hi).Bit(0) != 0 {
			t.Fatalf("fixFromFloat(%v) = %v, not x·2^64 rounded to nearest even", x, fixToBig(lo, hi))
		}
	}
}

// TestFixToFloatMatchesReference drives fixToFloat and the reference over
// random words on both sides of the int64 fast path — sign-extended
// values of every bit length, near-sign-extended ones, and raw pairs —
// plus the pairs that straddle the sign-extension test, requiring
// identical bits (and the big.Float rounding for the boundary pairs).
func TestFixToFloatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	check := func(lo, hi uint64) {
		t.Helper()
		got, want := fixToFloat(lo, hi), refFixToFloat(lo, hi)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fixToFloat(%#x, %#x) = %v, reference %v", lo, hi, got, want)
		}
	}
	for i := 0; i < 1_000_000; i++ {
		v := int64(rng.Uint64()) >> rng.Intn(64) // every bit length
		switch i % 4 {
		case 0, 1:
			check(uint64(v), uint64(v>>63)) // fits an int64: the fast path
		case 2:
			check(uint64(v), uint64(v>>63)^1) // one bit off sign extension
		default:
			check(rng.Uint64(), rng.Uint64())
		}
	}
	for _, c := range [][2]uint64{
		{1 << 63, 0},                     // +½: sign bit of lo set, hi 0 — the general path
		{1<<63 - 1, ^uint64(0)},          // lo positive under a negative hi — the general path
		{0, 1},                           // +1
		{1 << 63, ^uint64(0)},            // −½ fits an int64 — the fast path
		{1<<63 - 1, 0},                   // ½ − 2^-64 — the fast path
		{1<<54 + 2, 0},                   // tie between 2^54 and 2^54+4 units: to even
		{1<<54 + 6, 0},                   // tie rounding up to even
		{^uint64(1<<54 + 1), ^uint64(0)}, // negative tie
		{0, 0}, {^uint64(0), ^uint64(0)},
	} {
		check(c[0], c[1])
		bf := new(big.Float).SetPrec(200).SetInt(fixToBig(c[0], c[1]))
		want, _ := bf.SetMantExp(bf, -64).Float64()
		if got := fixToFloat(c[0], c[1]); got != want {
			t.Fatalf("fixToFloat(%#x, %#x) = %v, want %v", c[0], c[1], got, want)
		}
	}
}
