package core

// This file is the manager's reconciliation surface: exact per-word
// generation tracking. The word-granular export and import it enables are
// State.Select and Manager.RestoreSnapshot (snapshot.go). A "word" is 64
// consecutive scalars (the freezing bitmap's word layout); the
// generation of a word is round+1 of the last round that mutated any
// synchronized state inside it (0 = never touched). Two deterministic
// replicas of the same trajectory hold bit-identical word state
// whenever their generations agree, so a returning client and the
// server can reconcile (word, generation) pairs in O(symmetric
// difference) and then ship only the differing words' state.
//
// The tracked state per word is everything a word-restricted State
// carries for it: ref (which is also the canonical post-ApplyDownload
// model x: the two agree bit for bit after every download), lastCheck,
// the tracker's per-scalar averages/seeded bits, period, unfreezeAt, and
// randomUntil. Manager-global scalars (threshold,
// check count, the tracker's observation count, init/last round) ride
// whole in every State instead. Touch sites:
//
//   - ApplyDownload touches every word with at least one unfrozen
//     scalar (x and ref absorb the aggregate there), and every word on
//     the initializing download (the check baseline seeds everywhere).
//   - stabilityCheck's re-assessment writes (tracker averages, period,
//     unfreezeAt, ref) hit only scalars unfrozen in the same round, so
//     the ApplyDownload touch already covers them. The same sweep
//     touches the word of every APF#/APF++ randomUntil write, which may
//     land in otherwise fully-frozen words, and tracks the baseline
//     refresh (lastCheck ← x) bit-exactly per word, because it can
//     silently change words that are fully frozen (a randomly-frozen
//     scalar's x rolls back to ref between checks).

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
