package fl

import (
	"math"
	"math/rand"
	"testing"

	"apf/internal/quantize"
)

// randFixture builds a reproducible (contribs, weights) fixture. q16
// additionally rounds every scalar through binary16, matching what a
// sparse-q16 cluster's aggregator actually sees.
func randFixture(seed int64, n, dim int, q16 bool) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	contribs := make([][]float64, n)
	weights := make([]float64, n)
	for k := range contribs {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
		}
		if q16 {
			quantize.RoundTripSlice(c)
		}
		contribs[k] = c
		weights[k] = 1 + rng.Float64()*9
	}
	return contribs, weights
}

// TestTrimmedZeroFractionBitExact is the satellite property test: with
// trim fraction 0 the trimmed mean must be bit-identical to weighted
// FedAvg — same operations in the same order — on random fixtures,
// including binary16-rounded (q16) inputs.
func TestTrimmedZeroFractionBitExact(t *testing.T) {
	t.Parallel()
	agg := NewAggregator(4)
	defer agg.Close()
	for seed := int64(1); seed <= 20; seed++ {
		for _, q16 := range []bool{false, true} {
			n := 2 + int(seed%7)
			dim := 1 + int(seed*37%257)
			contribs, weights := randFixture(seed, n, dim, q16)
			if seed%3 == 0 {
				weights[0] = 0 // skipped-client path must match too
				contribs[0] = nil
			}
			want := make([]float64, dim)
			if !agg.weightedMean(want, contribs, weights) {
				t.Fatalf("seed %d: mean aggregated nothing", seed)
			}
			got := make([]float64, dim)
			if !agg.trimmedMean(got, contribs, weights, 0) {
				t.Fatalf("seed %d: trimmed(0) aggregated nothing", seed)
			}
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d q16=%v: scalar %d: trimmed(0) %v != mean %v",
						seed, q16, j, got[j], want[j])
				}
			}
		}
	}
}

// TestTrimmedPermutationInvariant: the trimmed mean must not depend on
// client order — columns sort by (value, weight), so any permutation of
// the same multiset yields bit-identical output.
func TestTrimmedPermutationInvariant(t *testing.T) {
	t.Parallel()
	agg := NewAggregator(4)
	defer agg.Close()
	for seed := int64(1); seed <= 10; seed++ {
		n := 4 + int(seed%5)
		dim := 64 + int(seed*13%100)
		contribs, weights := randFixture(seed, n, dim, seed%2 == 0)
		// Duplicate one contribution (ties in value AND weight) so the
		// tie-break path is exercised, not just distinct columns.
		contribs[n-1] = append([]float64(nil), contribs[0]...)
		weights[n-1] = weights[0]
		want := make([]float64, dim)
		if !agg.trimmedMean(want, contribs, weights, 0.25) {
			t.Fatalf("seed %d: aggregated nothing", seed)
		}
		rng := rand.New(rand.NewSource(seed + 999))
		for trial := 0; trial < 5; trial++ {
			perm := rng.Perm(n)
			pc := make([][]float64, n)
			pw := make([]float64, n)
			for i, p := range perm {
				pc[i], pw[i] = contribs[p], weights[p]
			}
			got := make([]float64, dim)
			agg.trimmedMean(got, pc, pw, 0.25)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d perm %v: scalar %d: %v != %v", seed, perm, j, got[j], want[j])
				}
			}
		}
	}
}

// TestTrimmedMedianDegenerate: with one survivor per coordinate the
// trimmed mean is the exact coordinate-wise median — taken directly, not
// through a (w·v)/w round trip.
func TestTrimmedMedianDegenerate(t *testing.T) {
	t.Parallel()
	agg := NewAggregator(2)
	defer agg.Close()
	contribs := [][]float64{
		{1, -5, 0.3},
		{2, -7, 0.1},
		{9, -6, 0.2},
	}
	weights := []float64{3, 1, 7} // weights must not skew a single survivor
	got := make([]float64, 3)
	if !agg.trimmedMean(got, contribs, weights, 0.34) {
		t.Fatal("aggregated nothing")
	}
	want := []float64{2, -6, 0.2}
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("scalar %d = %v, want the median %v", j, got[j], want[j])
		}
	}
	if k, m := agg.LastTrim(); k != 1 || m != 3 {
		t.Errorf("LastTrim = (%d, %d), want (1, 3)", k, m)
	}
}

// TestTrimmedBoundsOutlier: a single Byzantine contribution — sign-flipped
// or norm-matched-scaled — cannot move any output coordinate outside the
// honest values' range.
func TestTrimmedBoundsOutlier(t *testing.T) {
	t.Parallel()
	agg := NewAggregator(2)
	defer agg.Close()
	honest, weights := randFixture(7, 5, 200, false)
	for name, poison := range map[string]func(v []float64){
		"sign-flip": func(v []float64) {
			for j := range v {
				v[j] = -v[j]
			}
		},
		"scale": func(v []float64) {
			for j := range v {
				v[j] *= 100
			}
		},
	} {
		contribs := make([][]float64, len(honest))
		for i := range honest {
			contribs[i] = append([]float64(nil), honest[i]...)
		}
		poison(contribs[len(contribs)-1])
		out := make([]float64, 200)
		if !agg.trimmedMean(out, contribs, weights, 0.2) {
			t.Fatalf("%s: aggregated nothing", name)
		}
		for j := range out {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < len(contribs)-1; i++ {
				lo = math.Min(lo, honest[i][j])
				hi = math.Max(hi, honest[i][j])
			}
			if out[j] < lo || out[j] > hi {
				t.Fatalf("%s: coordinate %d = %v escaped the honest range [%v, %v]", name, j, out[j], lo, hi)
			}
		}
	}
}

// TestReduceTrimmedMatchesOneShot: the incremental Open/Add/Reduce path in
// trimmed mode is bit-identical to the one-shot trimmedMean, exactly as
// the mean path's contract.
func TestReduceTrimmedMatchesOneShot(t *testing.T) {
	t.Parallel()
	contribs, weights := randFixture(11, 6, 300, false)
	one := NewAggregator(3)
	defer one.Close()
	want := make([]float64, 300)
	one.trimmedMean(want, contribs, weights, 0.25)

	inc := NewAggregator(3)
	defer inc.Close()
	inc.SetTrimFraction(0.25)
	inc.Open(0, 6)
	for id := range contribs {
		if err := inc.Add(id, contribs[id], weights[id]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float64, 300)
	if n, ok := inc.Reduce(got); n != 6 || !ok {
		t.Fatalf("Reduce = (%d, %v)", n, ok)
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("scalar %d: %v != %v", j, got[j], want[j])
		}
	}
	if k, m := inc.LastTrim(); k != 1 || m != 6 {
		t.Errorf("LastTrim = (%d, %d), want (1, 6)", k, m)
	}
}

// TestTrimmedSmallClusters: below 3 participants there is nothing to
// trim; the reduction must fall back to the exact weighted mean.
func TestTrimmedSmallClusters(t *testing.T) {
	t.Parallel()
	agg := NewAggregator(1)
	defer agg.Close()
	contribs := [][]float64{{2, 4}, {4, 8}}
	weights := []float64{1, 3}
	want := make([]float64, 2)
	agg.weightedMean(want, contribs, weights)
	got := make([]float64, 2)
	agg.trimmedMean(got, contribs, weights, 0.25)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("scalar %d: %v != %v", j, got[j], want[j])
		}
	}
	if k, _ := agg.LastTrim(); k != 0 {
		t.Errorf("trim depth %d for 2 participants, want 0", k)
	}
}

// TestSetTrimFraction: the fraction alone selects the reduction. Outside
// [0, 0.5) it panics; set back to 0 after a trimmed round, Reduce is the
// exact weighted mean again, bit for bit, with no trim recorded.
func TestSetTrimFraction(t *testing.T) {
	t.Parallel()
	agg := NewAggregator(2)
	defer agg.Close()
	for _, frac := range []float64{-0.1, 0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetTrimFraction(%v) did not panic", frac)
				}
			}()
			agg.SetTrimFraction(frac)
		}()
	}

	contribs, weights := randFixture(5, 5, 120, false)
	want := make([]float64, 120)
	agg.weightedMean(want, contribs, weights)
	for _, frac := range []float64{0.25, 0} {
		agg.SetTrimFraction(frac)
		agg.Open(0, len(contribs))
		for id := range contribs {
			if err := agg.Add(id, contribs[id], weights[id]); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]float64, 120)
		if _, ok := agg.Reduce(got); !ok {
			t.Fatalf("fraction %v: Reduce aggregated nothing", frac)
		}
		k, _ := agg.LastTrim()
		if frac > 0 {
			if k != 1 {
				t.Errorf("fraction %v: trim depth %d, want 1", frac, k)
			}
			continue
		}
		if k != 0 {
			t.Errorf("fraction 0: trim depth %d, want 0", k)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("fraction 0: scalar %d: %v != mean %v", j, got[j], want[j])
			}
		}
	}
}
