package fl

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// bigToFix is fixToBig's inverse: the two's-complement (lo, hi) words of a
// value in [-2^127, 2^127).
func bigToFix(v *big.Int) (lo, hi uint64) {
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	u := new(big.Int).Mod(v, mod) // Mod is Euclidean: u ∈ [0, 2^128)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	return new(big.Int).And(u, mask).Uint64(), new(big.Int).Rsh(u, 64).Uint64()
}

// bigWidth is the reference minimal two's-complement byte width, computed
// without the packer's bit tricks.
func bigWidth(v *big.Int) int {
	if v.Sign() < 0 {
		v = new(big.Int).Not(v) // -v-1
	}
	return v.BitLen()/8 + 1
}

// randOfWidth draws a value whose minimal width is exactly n bytes.
func randOfWidth(rng *rand.Rand, n int) *big.Int {
	// Sign-folded magnitude bit length in [8(n-1), 8n-1].
	bitLen := 8*(n-1) + rng.Intn(8)
	v := new(big.Int)
	if bitLen > 0 {
		v.Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bitLen-1)))
		v.SetBit(v, bitLen-1, 1)
	}
	if rng.Intn(2) == 0 {
		v.Not(v)
	}
	if got := bigWidth(v); got != n {
		panic("randOfWidth drew the wrong width")
	}
	return v
}

// packedTags walks a packed section and returns each block's width tag.
func packedTags(t *testing.T, dim int, data []byte) []int {
	t.Helper()
	var tags []int
	for left := dim; left > 0; left -= packedBlock {
		count := min(left, packedBlock)
		n := int(data[0])
		tags = append(tags, n)
		data = data[1+count*n:]
	}
	if len(data) != 0 {
		t.Fatalf("%d bytes trail the last block", len(data))
	}
	return tags
}

// unpacked materializes a packed view the way production does: merged
// into an empty partial.
func unpacked(t *testing.T, c PackedCols) []uint64 {
	t.Helper()
	var p Partial
	if err := p.Merge(&Partial{Packed: c}); err != nil {
		t.Fatalf("merge of a packed view into an empty partial: %v", err)
	}
	return p.Cols
}

// TestPackedRoundTripEveryWidth is the layout's property test: column
// vectors whose blocks need every width 1–16 (boundary values ±2^(8n−1)
// included, short tail blocks, dim 0 and 1) pack to blocks tagged with
// exactly the reference minimal width, parse back as canonical, and
// unpack bit-identically.
func TestPackedRoundTripEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	seenWidth := make(map[int]bool)
	for _, dim := range []int{0, 1, 2, packedBlock - 1, packedBlock, packedBlock + 1, 5*packedBlock + 37, 17 * packedBlock} {
		for trial := 0; trial < 6; trial++ {
			cols := make([]uint64, 2*dim)
			var want []int
			for at := 0; at < dim; at += packedBlock {
				count := min(dim-at, packedBlock)
				n := 1 + (at/packedBlock+trial)%packedMaxWidth
				// One coordinate pins the block at width n; the rest are
				// anything narrower or equal, zeros and boundaries included.
				pin := rng.Intn(count)
				for j := 0; j < count; j++ {
					var v *big.Int
					switch k := rng.Intn(6); {
					case j == pin:
						v = randOfWidth(rng, n)
					case k == 0:
						v = new(big.Int)
					case k == 1: // −2^(8m−1): the most negative m-byte value
						m := 1 + rng.Intn(n)
						v = new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), uint(8*m-1)))
					case k == 2 && n > 1: // +2^(8m−1): one past the widest positive m-byte value
						m := 1 + rng.Intn(n-1)
						v = new(big.Int).Lsh(big.NewInt(1), uint(8*m-1))
					default:
						v = randOfWidth(rng, 1+rng.Intn(n))
					}
					cols[2*(at+j)], cols[2*(at+j)+1] = bigToFix(v)
				}
				want = append(want, n)
				seenWidth[n] = true
			}
			p := Partial{Cols: cols}
			data := p.AppendPacked(nil)
			if len(data) > MaxPackedLen(dim) {
				t.Fatalf("dim %d: packed %d bytes over the bound %d", dim, len(data), MaxPackedLen(dim))
			}
			view, err := ParsePacked(dim, data)
			if err != nil {
				t.Fatalf("dim %d: ParsePacked refused the packer's output: %v", dim, err)
			}
			tags := packedTags(t, dim, data)
			for b := range want {
				if tags[b] != want[b] {
					t.Fatalf("dim %d block %d: packed at width %d, reference minimum %d", dim, b, tags[b], want[b])
				}
			}
			got := unpacked(t, view)
			if len(got) != len(cols) {
				t.Fatalf("dim %d: unpacked %d words, want %d", dim, len(got), len(cols))
			}
			for i := range cols {
				if got[i] != cols[i] {
					t.Fatalf("dim %d: word %d unpacked to %#x, want %#x", dim, i, got[i], cols[i])
				}
			}
			// A view re-encodes verbatim.
			if again := (&Partial{Packed: view}).AppendPacked(nil); string(again) != string(data) {
				t.Fatalf("dim %d: re-encoding a parsed view changed the bytes", dim)
			}
		}
	}
	for n := 1; n <= packedMaxWidth; n++ {
		if !seenWidth[n] {
			t.Errorf("no block of width %d was exercised", n)
		}
	}
}

// TestPackedWidthsOfFoldedMagnitudes ties the widths to real folds: sums
// of sub-resolution, unit, 2^40 and 2^62 scale updates land in 1-, 9-, 14-
// and 16-byte blocks, and small-magnitude updates — the common case — in
// 8 bytes.
func TestPackedWidthsOfFoldedMagnitudes(t *testing.T) {
	for _, tt := range []struct {
		name string
		v    float64
		want int
	}{
		{"zero", 0, 1},
		{"below resolution", math.Ldexp(1, -70), 1},
		{"negative below resolution", -math.Ldexp(1, -70), 1},
		{"typical update", 0.003, 8},
		{"negative typical update", -0.25, 8},
		{"one", 1, 9},
		{"minus one", -1, 9},
		{"2^40", math.Ldexp(1, 40), 14},
		{"-2^40", -math.Ldexp(1, 40), 14},
		{"2^62", math.Ldexp(1, 62), 16},
		{"-2^62", -math.Ldexp(1, 62), 16},
	} {
		var p Partial
		if err := p.Fold([]float64{tt.v, 0, tt.v}, 1); err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		data := p.AppendPacked(nil)
		if got := int(data[0]); got != tt.want {
			t.Errorf("%s: packed at width %d, want %d", tt.name, got, tt.want)
		}
	}
}

// TestMergeFromPackedMatchesCols: merging a packed view is the same
// operation as merging the columns it encodes — same sums, count and
// weight on success, and on an accumulator overflow the same error, the
// same poison, and the same half-mutated column state.
func TestMergeFromPackedMatchesCols(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const dim = 3*packedBlock + 11
	randPartial := func(scale float64) *Partial {
		p := &Partial{}
		contrib := make([]float64, dim)
		for k := 0; k < 3; k++ {
			for j := range contrib {
				contrib[j] = scale * rng.NormFloat64()
				if j%97 == 0 {
					contrib[j] *= math.Ldexp(1, 40) // widen a few blocks
				}
			}
			if err := p.Fold(contrib, 0.5+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	packedTwin := func(q *Partial) *Partial {
		view, err := ParsePacked(q.Dim(), q.AppendPacked(nil))
		if err != nil {
			t.Fatal(err)
		}
		return &Partial{Count: q.Count, WeightLo: q.WeightLo, WeightHi: q.WeightHi, Packed: view}
	}
	same := func(a, b *Partial) {
		t.Helper()
		if a.Count != b.Count || a.WeightLo != b.WeightLo || a.WeightHi != b.WeightHi ||
			a.Poisoned() != b.Poisoned() || len(a.Cols) != len(b.Cols) {
			t.Fatalf("partials differ: %+v vs %+v", a, b)
		}
		for i := range a.Cols {
			if a.Cols[i] != b.Cols[i] {
				t.Fatalf("word %d: %#x vs %#x", i, a.Cols[i], b.Cols[i])
			}
		}
	}

	base, q := randPartial(0.01), randPartial(0.01)
	viaCols, viaPacked := &Partial{}, &Partial{}
	viaCols.CopyFrom(base)
	viaPacked.CopyFrom(base)
	if err := viaCols.Merge(q); err != nil {
		t.Fatal(err)
	}
	if err := viaPacked.Merge(packedTwin(q)); err != nil {
		t.Fatal(err)
	}
	same(viaCols, viaPacked)

	// A dimension disagreement is refused before any word changes.
	short := &Partial{}
	if err := short.Fold([]float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	before := append([]uint64(nil), viaPacked.Cols...)
	if err := viaPacked.Merge(packedTwin(short)); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("dim mismatch from a packed source: got %v, want ErrLengthMismatch", err)
	}
	for i := range before {
		if viaPacked.Cols[i] != before[i] {
			t.Fatalf("a refused merge changed word %d", i)
		}
	}

	// Overflow: park one coordinate of the receiver just under +2^127 and
	// merge a positive source into it.
	const hot = 2*packedBlock + 5
	q = randPartial(0.01)
	q.Cols[2*hot], q.Cols[2*hot+1] = 0, 1<<62
	viaCols.CopyFrom(base)
	viaPacked.CopyFrom(base)
	for _, p := range []*Partial{viaCols, viaPacked} {
		p.Cols[2*hot], p.Cols[2*hot+1] = 0, 1<<62+1<<61
	}
	errCols := viaCols.Merge(q)
	errPacked := viaPacked.Merge(packedTwin(q))
	if !errors.Is(errCols, ErrAccumOverflow) || !errors.Is(errPacked, ErrAccumOverflow) {
		t.Fatalf("overflow: cols %v, packed %v, want ErrAccumOverflow from both", errCols, errPacked)
	}
	if errCols.Error() != errPacked.Error() {
		t.Fatalf("overflow reported differently: %q vs %q", errCols, errPacked)
	}
	if !viaPacked.Poisoned() {
		t.Fatal("overflow from a packed source did not poison the receiver")
	}
	same(viaCols, viaPacked)
}

// TestParsePackedRejects covers the structural damage ParsePacked must
// refuse: every case is one mutation of a valid two-block section.
func TestParsePackedRejects(t *testing.T) {
	const dim = packedBlock + 3
	cols := make([]uint64, 2*dim)
	for j := 0; j < dim; j++ {
		cols[2*j] = uint64(j + 1) // block 0 needs 2 bytes (values up to 256), block 1 too
	}
	good := (&Partial{Cols: cols}).AppendPacked(nil)
	if _, err := ParsePacked(dim, good); err != nil {
		t.Fatalf("valid section refused: %v", err)
	}
	block1 := 1 + 2*packedBlock // offset of the second block's tag
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	widen := func(b []byte) []byte { // re-tag block 1 at 3 bytes with correctly sign-extended values
		out := append([]byte(nil), b[:block1]...)
		out = append(out, 3)
		for i := block1 + 1; i < len(b); i += 2 {
			out = append(out, b[i], b[i+1], 0)
		}
		return out
	}
	for _, tt := range []struct {
		name string
		dim  int
		data []byte
		want string
	}{
		{"tag 0", dim, mutate(func(b []byte) []byte { b[0] = 0; return b }), "width tag 0"},
		{"tag 17", dim, mutate(func(b []byte) []byte { b[block1] = 17; return b }), "width tag 17"},
		{"non-minimal tag", dim, widen(good), "wider than the block needs"},
		{"one byte short", dim, good[:len(good)-1], "truncated"},
		{"one byte long", dim, append(append([]byte(nil), good...), 0), "trail"},
		{"ends at a block boundary", dim, good[:block1], "truncated"},
		{"dim one less than the section", dim - 1, good, "trail"},
		{"dim one more than the section", dim + 1, good, "truncated"},
		{"negative dim", -1, good, "cannot fit"},
		{"huge dim", math.MaxInt64, good, "cannot fit"},
		{"dim 0 with bytes", 0, []byte{1}, "trail"},
	} {
		_, err := ParsePacked(tt.dim, tt.data)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", tt.name, err, tt.want)
		}
	}
}

// TestPackedSteadyStateAllocs pins the relay→root hop's allocation
// contract inside fl: exporting into a reused partial, packing into a
// reused buffer, and merging a packed view allocate nothing at all.
func TestPackedSteadyStateAllocs(t *testing.T) {
	const dim = 40 * packedBlock
	contrib := make([]float64, dim)
	for j := range contrib {
		contrib[j] = 0.01 * float64(j%17-8)
	}
	relay := NewAggregator(1)
	defer relay.Close()
	relay.SetStreaming(true)
	root := NewAggregator(1)
	defer root.Close()
	root.SetStreaming(true)

	var exported Partial
	var buf []byte
	var view PackedCols
	round := func() {
		relay.Open(0, 1)
		if err := relay.Add(0, contrib, 1); err != nil {
			t.Fatal(err)
		}
		if _, ok := relay.ExportPartial(&exported); !ok {
			t.Fatal("export failed")
		}
		buf = exported.AppendPacked(buf[:0])
		var err error
		if view, err = ParsePacked(dim, buf); err != nil {
			t.Fatal(err)
		}
		root.Open(0, 1)
		src := Partial{Count: exported.Count, WeightLo: exported.WeightLo, WeightHi: exported.WeightHi, Packed: view}
		if err := root.AddPartial(0, &src); err != nil {
			t.Fatal(err)
		}
		root.Discard()
	}
	round() // size the reused buffers
	if n := testing.AllocsPerRun(5, round); n != 0 {
		t.Fatalf("steady-state export + pack + merge-from-packed allocates %v objects per round, want 0", n)
	}
}

// FuzzParsePacked throws arbitrary (dim, bytes) at the packed-section
// parser, which sits behind only a CRC on the root's inbound path. It
// must never panic, and whatever it accepts must be canonical: unpacked
// and packed again it is the same bytes.
func FuzzParsePacked(f *testing.F) {
	f.Add(2, []byte{2, 0x00, 0x01, 0x00, 0xff})
	f.Add(3, []byte{16, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0x40})
	f.Add(0, []byte{})
	f.Add(packedBlock+1, (&Partial{Cols: make([]uint64, 2*(packedBlock+1))}).AppendPacked(nil))
	f.Fuzz(func(t *testing.T, dim int, data []byte) {
		view, err := ParsePacked(dim, data)
		if err != nil {
			return
		}
		p := Partial{Cols: unpacked(t, view)}
		if again := p.AppendPacked(nil); string(again) != string(data) {
			t.Fatalf("accepted section is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}
