package bitset

import (
	"math"
	"math/rand"
	"testing"
)

// randomSet builds a bitmap of n bits where each bit is set with
// probability p, plus the plain bool reference.
func randomSet(t *testing.T, rng *rand.Rand, n int, p float64) (*BitSet, []bool) {
	t.Helper()
	b := New(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			b.Set(i)
			ref[i] = true
		}
	}
	return b, ref
}

// lengths exercises word boundaries: sub-word, aligned, and ragged tails.
var lengths = []int{0, 1, 63, 64, 65, 127, 128, 130, 1000}

func TestApplyMaskedUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.2, 0.5, 0.97, 1} {
			b, ref := randomSet(t, rng, n, p)
			src := make([]float64, n)
			for j := range src {
				src[j] = rng.NormFloat64()
			}
			dstM := make([]float64, n)
			dstU := make([]float64, n)
			for j := range dstM {
				dstM[j], dstU[j] = -1, -1
			}
			b.ApplyMasked(dstM, src)
			b.ApplyUnmasked(dstU, src)
			for j := range ref {
				wantM, wantU := -1.0, src[j]
				if ref[j] {
					wantM, wantU = src[j], -1.0
				}
				if dstM[j] != wantM {
					t.Fatalf("n=%d p=%v ApplyMasked[%d] = %v, want %v", n, p, j, dstM[j], wantM)
				}
				if dstU[j] != wantU {
					t.Fatalf("n=%d p=%v ApplyUnmasked[%d] = %v, want %v", n, p, j, dstU[j], wantU)
				}
			}
		}
	}
}

// TestBlend pins the one-pass blend against its per-bit definition at
// every density, including words split exactly in half.
func TestBlend(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			b, ref := randomSet(t, rng, n, p)
			if p == 0.5 && n >= 64 {
				b.words[0], ref = 0xffff_0000_ffff_0000, append(ref[:0:0], ref...)
				for j := 0; j < 64; j++ {
					ref[j] = b.words[0]&(1<<j) != 0
				}
			}
			set, clear, dst := make([]float64, n), make([]float64, n), make([]float64, n)
			for j := range set {
				set[j], clear[j], dst[j] = rng.NormFloat64(), rng.NormFloat64(), math.NaN()
			}
			b.Blend(dst, set, clear)
			for j, isSet := range ref {
				want := clear[j]
				if isSet {
					want = set[j]
				}
				if dst[j] != want {
					t.Fatalf("n=%d p=%v Blend[%d] = %v, want %v", n, p, j, dst[j], want)
				}
			}
		}
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.3, 0.96, 1} {
			b, ref := randomSet(t, rng, n, p)
			src := make([]float64, n)
			fill := make([]float64, n)
			for j := range src {
				src[j] = rng.NormFloat64()
				fill[j] = 100 + float64(j)
			}

			compact := b.GatherUnmasked(nil, src)
			wantLen := n - b.Count()
			if len(compact) != wantLen {
				t.Fatalf("n=%d p=%v gather produced %d values, want %d", n, p, len(compact), wantLen)
			}
			k := 0
			for j, set := range ref {
				if !set {
					if compact[k] != src[j] {
						t.Fatalf("n=%d compact[%d] = %v, want src[%d] = %v", n, k, compact[k], j, src[j])
					}
					k++
				}
			}

			dst := make([]float64, n)
			if used := b.ScatterUnmasked(dst, compact, fill); used != wantLen {
				t.Fatalf("n=%d scatter consumed %d values, want %d", n, used, wantLen)
			}
			for j, set := range ref {
				want := src[j]
				if set {
					want = fill[j]
				}
				if dst[j] != want {
					t.Fatalf("n=%d p=%v scatter[%d] = %v, want %v", n, p, j, dst[j], want)
				}
			}
		}
	}
}

func TestFillMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range lengths {
		b, ref := randomSet(t, rng, n, 0.5)
		f := New(n)
		f.Fill(func(i int) bool { return ref[i] })
		if !f.Equal(b) {
			t.Fatalf("n=%d Fill disagrees with Set", n)
		}
		// Refilling with an all-false predicate must clear stale words.
		f.Fill(func(int) bool { return false })
		if f.Count() != 0 {
			t.Fatalf("n=%d Fill(false) left %d bits set", n, f.Count())
		}
	}
}

// TestWordLists pins the word-list helpers on a 130-scalar vector (words
// 0 and 1 full, word 2 the 2-scalar tail): the covered count, the packed
// layout, the round trip, and the refusal of unordered, repeated or
// out-of-range lists.
func TestWordLists(t *testing.T) {
	const n = 130
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	words := []int{0, 2}
	if got, err := CheckWords(n, words); err != nil || got != 66 {
		t.Fatalf("CheckWords(%v) = %d, %v; want 66", words, got, err)
	}
	packed := GatherWords(v, words)
	if len(packed) != 66 || packed[63] != 63 || packed[64] != 128 || packed[65] != 129 {
		t.Fatalf("packed form %v", packed)
	}
	dst := make([]int, n)
	ScatterWords(dst, packed, words)
	for i, x := range dst {
		want := 0
		if i < 64 || i >= 128 {
			want = i
		}
		if x != want {
			t.Fatalf("scattered scalar %d = %d, want %d", i, x, want)
		}
	}
	if got, err := CheckWords(n, []int{}); err != nil || got != 0 {
		t.Fatalf("empty list: %d, %v", got, err)
	}
	for _, bad := range [][]int{{1, 0}, {1, 1}, {-1}, {3}} {
		if _, err := CheckWords(n, bad); err == nil {
			t.Errorf("CheckWords accepted %v", bad)
		}
	}
}
