package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"apf/internal/bitset"
)

// driveRounds advances a manager through rounds [from, to) the way the
// transport does — PostIterate, a deterministic pseudo-training step,
// PrepareUpload, ApplyDownload of a deterministic "aggregate" — and
// returns the canonical post-ApplyDownload model. The aggregate is a
// pure function of (round, j), so any two managers driven over the
// same rounds are bit-exact replicas.
func driveRounds(m *Manager, x []float64, from, to int) []float64 {
	for round := from; round < to; round++ {
		m.PostIterate(round, x)
		for j := range x {
			x[j] += math.Sin(float64(round*31+j)) * 0.1
		}
		m.PostIterate(round, x)
		m.PrepareUpload(round, x)
		global := make([]float64, len(x))
		for j := range global {
			// An oscillating aggregate: per-check deltas alternate sign,
			// effective perturbation collapses, and scalars freeze — with
			// the oscillation amplitude varying by word so different words
			// freeze and thaw on different schedules. Whole words go
			// quiet, which is what gives generations something to share.
			osc := 0.001 * (1 + math.Sin(float64(j/64)))
			if round%2 == 1 {
				osc = -osc
			}
			global[j] = math.Cos(float64(j)) + osc + math.Pow(0.5, float64(round))*0.01
		}
		m.ApplyDownload(round, x, global)
	}
	return x
}

func reconTestConfig(dim int) Config {
	return Config{
		Dim:              dim,
		CheckEveryRounds: 5,
		Threshold:        0.9, // freeze aggressively so masks get dense
		EMAAlpha:         0.9,
		Seed:             42,
		Random:           RandomFreeze{Mode: RandomFixed, Prob: 0.3},
	}
}

// diffWords lists the words whose generations differ, ascending.
func diffWords(a, b []uint32) []int {
	words := []int{}
	for w := range a {
		if a[w] != b[w] {
			words = append(words, w)
		}
	}
	return words
}

// catchUpWords applies the sketch delta for words: the source replica's
// state restricted to them, through the codec, plus their model scalars —
// what transport catch-up ships and a client installs.
func catchUpWords(t *testing.T, dst *Manager, xd []float64, src *State, xs []float64, words []int) {
	t.Helper()
	part, err := src.Select(words)
	if err != nil {
		t.Fatalf("select %v: %v", words, err)
	}
	if part, err = DecodeState(EncodeState(part)); err != nil {
		t.Fatalf("codec: %v", err)
	}
	if err := dst.RestoreSnapshot(part); err != nil {
		t.Fatalf("restore %v: %v", words, err)
	}
	bitset.ScatterWords(xd, bitset.GatherWords(xs, words), words)
}

// perWord returns the words' share of a replica: the model scalars and the
// word-restricted state with the manager-global scalars cleared.
func perWord(t *testing.T, s *State, x []float64, words []int) (*State, []float64) {
	t.Helper()
	p, err := s.Select(words)
	if err != nil {
		t.Fatal(err)
	}
	p.Threshold, p.CheckCount, p.Tracker.Seen = 0, 0, 0
	p.Initialized, p.InitRound, p.LastRound = false, 0, 0
	return p, bitset.GatherWords(x, words)
}

// sameBits reports whether two vectors are bit-identical.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// requireReplica fails unless got is want bit for bit: model, snapshot
// (EMAs, periods, deadlines, generations, header scalars), mask words and
// mask generation.
func requireReplica(t *testing.T, step string, want *Manager, xw []float64, got *Manager, xg []float64) {
	t.Helper()
	if !sameBits(xw, xg) {
		t.Fatalf("%s: model differs", step)
	}
	if !reflect.DeepEqual(want.Snapshot(), got.Snapshot()) {
		t.Fatalf("%s: manager state differs", step)
	}
	if !slices.Equal(want.MaskWords(), got.MaskWords()) || want.MaskGeneration() != got.MaskGeneration() {
		t.Fatalf("%s: freezing mask differs", step)
	}
}

// TestWordGenInvariant pins the replica-identity invariant behind the
// sketch catch-up: for two replicas of the same deterministic
// trajectory at different rounds, every word whose generations agree
// holds bit-identical state on both — so reconciling generations finds
// every difference.
func TestWordGenInvariant(t *testing.T) {
	const dim, rounds = 517, 60 // trailing partial word on purpose
	cfg := reconTestConfig(dim)
	ahead := NewManager(cfg)
	xa := make([]float64, dim)
	driveRounds(ahead, xa, 0, rounds)
	for _, stop := range []int{52, 55, 58} {
		behind := NewManager(cfg)
		xb := make([]float64, dim)
		driveRounds(behind, xb, 0, stop)
		ga, gb := ahead.WordGens(), behind.WordGens()
		sa, sb := ahead.Snapshot(), behind.Snapshot()
		same := 0
		for w := range ga {
			if ga[w] != gb[w] {
				continue
			}
			same++
			ba, bxa := perWord(t, sa, xa, []int{w})
			bb, bxb := perWord(t, sb, xb, []int{w})
			if !reflect.DeepEqual(ba, bb) || !sameBits(bxa, bxb) {
				t.Fatalf("stop %d: word %d has equal gen %d but different state", stop, w, ga[w])
			}
		}
		if same == 0 {
			t.Fatalf("stop %d: no shared generations — the invariant was never exercised", stop)
		}
		t.Logf("stop %d: %d/%d words share generations", stop, same, len(ga))
	}
}

// TestSelectRestoresReplica is the property behind the sketch delta. For
// a word set S — empty, every word, the trailing partial word alone, or
// random — restoring the live replica's state restricted to S onto a stale
// replica installs S's words and the manager-global scalars and leaves
// every other word as it was; restoring S plus the words whose generations
// differ makes the stale replica the live one bit for bit, and it stays so
// in later rounds.
func TestSelectRestoresReplica(t *testing.T) {
	const dim, rounds = 517, 60 // word 8 holds the 5 trailing scalars
	cfg := reconTestConfig(dim)
	live := NewManager(cfg)
	xl := make([]float64, dim)
	driveRounds(live, xl, 0, rounds)
	src := live.Snapshot()
	nw := len(live.WordGens())
	all := make([]int, nw)
	for w := range all {
		all[w] = w
	}
	stale := func(stop int) (*Manager, []float64) {
		m := NewManager(cfg)
		x := make([]float64, dim)
		driveRounds(m, x, 0, stop)
		return m, x
	}
	rng := rand.New(rand.NewSource(9))
	moved := 0
	for trial := 0; trial < 12; trial++ {
		var words []int
		switch trial {
		case 0:
			words = []int{}
		case 1:
			words = all
		case 2:
			words = []int{nw - 1}
		default:
			words = []int{}
			for w := range all {
				if rng.Intn(2) == 0 {
					words = append(words, w)
				}
			}
		}
		stop := 1 + rng.Intn(rounds-1)

		// S alone: S's words and the header come from the live replica.
		m, x := stale(stop)
		before, xBefore := m.Snapshot(), append([]float64(nil), x...)
		catchUpWords(t, m, x, src, xl, words)
		got, want := m.Snapshot(), src
		if p, q := must(got.Select(words)), must(want.Select(words)); !reflect.DeepEqual(p, q) {
			t.Fatalf("trial %d (stop %d, words %v): restored words or header differ from the live replica", trial, stop, words)
		}
		others := slices.DeleteFunc(slices.Clone(all), func(w int) bool { return slices.Contains(words, w) })
		gp, gx := perWord(t, got, x, others)
		bp, bx := perWord(t, before, xBefore, others)
		if !reflect.DeepEqual(gp, bp) || !sameBits(gx, bx) {
			t.Fatalf("trial %d (stop %d): a word outside %v changed", trial, stop, words)
		}

		// S plus the differing words: the live replica.
		m, x = stale(stop)
		diff := diffWords(live.WordGens(), m.WordGens())
		moved += len(diff)
		union := append(slices.Clone(words), diff...)
		slices.Sort(union)
		union = slices.Compact(union)
		catchUpWords(t, m, x, src, xl, union)
		requireReplica(t, "restored", live, xl, m, x)
		if trial == 11 {
			driveRounds(live, xl, rounds, rounds+20)
			driveRounds(m, x, rounds, rounds+20)
			requireReplica(t, "20 rounds after the restore", live, xl, m, x)
		}
	}
	if moved == 0 {
		t.Fatal("no stale replica differed from the live one")
	}
}

// must returns v, panicking on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestSelectValidation: Select takes only strictly ascending in-range word
// lists from a full state, and RestoreSnapshot refuses a state whose
// arrays do not match its coverage.
func TestSelectValidation(t *testing.T) {
	s := NewManager(reconTestConfig(130)).Snapshot() // words 0, 1 and a 2-scalar word 2
	for _, words := range [][]int{{1, 0}, {0, 0}, {-1}, {3}, {0, 1, 2, 3}} {
		if _, err := s.Select(words); err == nil {
			t.Errorf("selected words %v", words)
		}
	}
	part := must(s.Select([]int{0, 2}))
	if _, err := part.Select([]int{0}); err == nil {
		t.Error("selected from a word-restricted state")
	}
	m := NewManager(reconTestConfig(130))
	bad := *part
	bad.Words = []int{0}
	if err := m.RestoreSnapshot(&bad); err == nil {
		t.Error("restored a state whose arrays overrun its coverage")
	}
	if err := m.RestoreSnapshot(part); err != nil {
		t.Errorf("restore of words 0 and 2: %v", err)
	}
}

// TestRestoreSnapshotInPlace pins the snapshot catch-up entry point:
// an in-place restore reproduces the source manager bit-exactly and
// snapshots without the word generations are refused.
func TestRestoreSnapshotInPlace(t *testing.T) {
	const dim, rounds = 320, 37
	cfg := reconTestConfig(dim)
	src := NewManager(cfg)
	x := make([]float64, dim)
	driveRounds(src, x, 0, rounds)

	dst := NewManager(cfg)
	if err := dst.RestoreSnapshot(src.Snapshot()); err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	if !reflect.DeepEqual(src.Snapshot(), dst.Snapshot()) {
		t.Fatalf("in-place restore differs from source")
	}

	noGens := src.Snapshot()
	noGens.WordGen = nil
	if err := dst.RestoreSnapshot(noGens); err == nil {
		t.Fatalf("snapshot without word generations restored without error")
	}

	bad := src.Snapshot()
	bad.Dim = dim + 1
	if err := dst.RestoreSnapshot(bad); err == nil {
		t.Fatalf("mismatched snapshot restored without error")
	}
}

// TestWordGenRandomizedStops sweeps random stop points so no touch
// site escapes: whatever round the behind replica pauses at, the
// gen-diff words plus header must fully repair it.
func TestWordGenRandomizedStops(t *testing.T) {
	const dim, rounds = 259, 80
	cfg := reconTestConfig(dim)
	ahead := NewManager(cfg)
	xa := make([]float64, dim)
	driveRounds(ahead, xa, 0, rounds)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		stop := 1 + rng.Intn(rounds-1)
		behind := NewManager(cfg)
		xb := make([]float64, dim)
		driveRounds(behind, xb, 0, stop)
		catchUpWords(t, behind, xb, ahead.Snapshot(), xa, diffWords(ahead.WordGens(), behind.WordGens()))
		if !reflect.DeepEqual(ahead.Snapshot(), behind.Snapshot()) {
			t.Fatalf("stop %d: delta import did not reproduce the ahead state", stop)
		}
		for j := range xa {
			if math.Float64bits(xa[j]) != math.Float64bits(xb[j]) {
				t.Fatalf("stop %d: model scalar %d differs", stop, j)
			}
		}
	}
}
