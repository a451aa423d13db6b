package core

import (
	"fmt"
	"math"
)

// This file is the manager's reconciliation surface: exact per-word
// generation tracking plus word-granular state export (from a State
// snapshot) and import (into a live Manager). A "word" is 64 consecutive scalars (the freezing bitmap's word layout); the
// generation of a word is round+1 of the last round that mutated any
// synchronized state inside it (0 = never touched). Two deterministic
// replicas of the same trajectory hold bit-identical word state
// whenever their generations agree, so a returning client and the
// server can reconcile (word, generation) pairs in O(symmetric
// difference) and then ship only the differing words' state.
//
// The tracked state per word is everything a word block carries:
// x (the canonical post-ApplyDownload model), ref, lastCheck, the
// tracker's per-scalar averages/seeded bits, period, unfreezeAt, and
// randomUntil. Manager-global scalars (threshold, check count, the
// tracker's observation count, init/last round) ride in the SyncHeader
// instead. Touch sites:
//
//   - ApplyDownload touches every word with at least one unfrozen
//     scalar (x and ref absorb the aggregate there), and every word on
//     the initializing download (the check baseline seeds everywhere).
//   - stabilityCheck's re-assessment writes (tracker averages, period,
//     unfreezeAt, ref) hit only scalars unfrozen in the same round, so
//     the ApplyDownload touch already covers them; the baseline
//     refresh (lastCheck ← x) is tracked bit-exactly per word because
//     it can silently change words that are fully frozen (a
//     randomly-frozen scalar's x rolls back to ref between checks).
//   - applyRandomFreezing touches the word of every randomUntil write,
//     which may land in otherwise fully-frozen words.

// WordBlock is the full synchronized state of one 64-scalar word. The
// slices are wordWidth(w) long (64, or Dim%64 for a trailing partial
// word).
type WordBlock struct {
	Word        int
	Gen         uint32
	Seeded      uint64 // tracker seeded bits, bit k = scalar Word*64+k
	X           []float64
	Ref         []float64
	LastCheck   []float64
	E           []float64
	A           []float64
	Period      []float64
	UnfreezeAt  []int
	RandomUntil []int
}

// SyncHeader carries the manager-global scalars that word blocks
// cannot: the delta import applies it once alongside the blocks.
type SyncHeader struct {
	Threshold   float64
	CheckCount  int
	Seen        int
	Initialized bool
	InitRound   int
	LastRound   int
}

// wordWidth returns how many scalars word w of a dim-scalar model holds.
func wordWidth(dim, w int) int {
	n := dim - w*64
	if n > 64 {
		n = 64
	}
	return n
}

// fullWordBits returns the bitmap word with one bit set for each scalar
// word w holds: the frozen-bitmap value meaning "every scalar of word w is
// frozen" (trailing partial words keep their invalid high bits zero).
func fullWordBits(dim, w int) uint64 {
	return ^uint64(0) >> uint(64-wordWidth(dim, w))
}

// touchUnfrozenWords stamps round's generation on every word with at
// least one unfrozen scalar under the current mask (which the caller
// has refreshed for round).
func (m *Manager) touchUnfrozenWords(round int) {
	g := uint32(round + 1)
	for w, bits := range m.mask.Words() {
		if bits != fullWordBits(m.cfg.Dim, w) {
			m.wordGen[w] = g
		}
	}
}

// WordGens returns a copy of the per-word generation vector.
func (m *Manager) WordGens() []uint32 {
	return append([]uint32(nil), m.wordGen...)
}

// WordBlock copies word w's full synchronized state out of a snapshot and
// the canonical model vector x it was taken with (the post-ApplyDownload
// model of the same round). Catch-up exports a delta this way from a
// captured state, without a live manager.
func (s *State) WordBlock(w int, x []float64) WordBlock {
	if len(x) != s.Dim {
		panic(fmt.Sprintf("core: vector length %d does not match model dimension %d", len(x), s.Dim))
	}
	if w < 0 || w >= len(s.WordGen) {
		panic(fmt.Sprintf("core: word %d out of %d", w, len(s.WordGen)))
	}
	lo := w * 64
	n := wordWidth(s.Dim, w)
	hi := lo + n
	return WordBlock{
		Word:        w,
		Gen:         s.WordGen[w],
		Seeded:      s.Tracker.Seeded[w] & fullWordBits(s.Dim, w),
		X:           append([]float64(nil), x[lo:hi]...),
		Ref:         append([]float64(nil), s.Ref[lo:hi]...),
		LastCheck:   append([]float64(nil), s.LastCheck[lo:hi]...),
		E:           append([]float64(nil), s.Tracker.E[lo:hi]...),
		A:           append([]float64(nil), s.Tracker.A[lo:hi]...),
		Period:      append([]float64(nil), s.Period[lo:hi]...),
		UnfreezeAt:  append([]int(nil), s.UnfreezeAt[lo:hi]...),
		RandomUntil: append([]int(nil), s.RandomUntil[lo:hi]...),
	}
}

// ApplyWordBlock overwrites word w's state from a block exported by a
// bit-exact replica, writing the model scalars into x. The freezing
// bitmap is invalidated; callers finish an import with
// ApplySyncHeader.
func (m *Manager) ApplyWordBlock(b WordBlock, x []float64) error {
	m.checkDim(x)
	if b.Word < 0 || b.Word >= len(m.wordGen) {
		return fmt.Errorf("core: word block %d out of %d words", b.Word, len(m.wordGen))
	}
	n := wordWidth(m.cfg.Dim, b.Word)
	for name, l := range map[string]int{
		"X": len(b.X), "Ref": len(b.Ref), "LastCheck": len(b.LastCheck),
		"E": len(b.E), "A": len(b.A), "Period": len(b.Period),
		"UnfreezeAt": len(b.UnfreezeAt), "RandomUntil": len(b.RandomUntil),
	} {
		if l != n {
			return fmt.Errorf("core: word block %d field %s has %d scalars, want %d", b.Word, name, l, n)
		}
	}
	lo := b.Word * 64
	copy(x[lo:lo+n], b.X)
	copy(m.ref[lo:lo+n], b.Ref)
	copy(m.lastCheck[lo:lo+n], b.LastCheck)
	copy(m.period[lo:lo+n], b.Period)
	copy(m.unfreezeAt[lo:lo+n], b.UnfreezeAt)
	copy(m.randomUntil[lo:lo+n], b.RandomUntil)
	for k := 0; k < n; k++ {
		m.tracker.RestoreScalarState(lo+k, b.E[k], b.A[k], b.Seeded&(1<<uint(k)) != 0)
	}
	m.wordGen[b.Word] = b.Gen
	m.maskRound = -1
	return nil
}

// SyncHeader exports the snapshot's manager-global scalars.
func (s *State) SyncHeader() SyncHeader {
	return SyncHeader{
		Threshold:   s.Threshold,
		CheckCount:  s.CheckCount,
		Seen:        s.Tracker.Seen,
		Initialized: s.Initialized,
		InitRound:   s.InitRound,
		LastRound:   s.LastRound,
	}
}

// ApplySyncHeader overwrites the manager-global scalars and
// invalidates the freezing bitmap; the next mask use rebuilds it from
// the imported deadlines.
func (m *Manager) ApplySyncHeader(h SyncHeader) error {
	if math.IsNaN(h.Threshold) {
		return fmt.Errorf("core: sync header threshold NaN")
	}
	m.threshold = h.Threshold
	m.checkCount = h.CheckCount
	m.tracker.RestoreSeen(h.Seen)
	m.initialized = h.Initialized
	m.initRound = h.InitRound
	m.lastRound = h.LastRound
	m.maskRound = -1
	return nil
}
