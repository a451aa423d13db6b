package core

import (
	"fmt"

	"apf/internal/bitset"
)

// Follower is the server side's one replica of the clients' synchronized
// APF state: a Manager plus the synchronized model x, fed only committed
// aggregates. The freezing state is a pure function of the committed
// trajectory, so after Observe(r) the follower holds, bit for bit, what
// every client holds after applying round r. Catch-up serves that state
// (package transport) and the §9 server-side placement ships its mask
// (MaskServer).
//
// A follower never guesses. A gap in the rounds or a compacted payload of
// the wrong length desyncs it, and a desynced follower observes and
// captures nothing until Restore.
type Follower struct {
	mgr *Manager
	x   []float64
	// round is the last round folded in (-1: none).
	round int
	// desync is why the replica stopped following (nil while it follows).
	desync error
}

// NewFollower builds a follower from the Config every client manager was
// built with (Seed included: random freezing draws from it).
func NewFollower(cfg Config) *Follower {
	m := NewManager(cfg)
	return &Follower{mgr: m, x: make([]float64, m.cfg.Dim), round: -1}
}

// Dim returns the model dimension.
func (f *Follower) Dim() int { return len(f.x) }

// Round returns the last round folded in (-1 before the first). A desynced
// follower keeps the last round it followed.
func (f *Follower) Round() int { return f.round }

// MaskGeneration returns the replica's mask generation (Manager.MaskGeneration).
func (f *Follower) MaskGeneration() int { return f.mgr.MaskGeneration() }

// Observe folds committed aggregate round into the replica exactly as a
// client folds it: rollback on the synchronized state (a no-op that
// refreshes the mask), expansion when the payload is mask-compacted, then
// ApplyDownload, which runs the stability check. Only round Round()+1 is
// accepted; anything else, or a compacted payload whose length is not the
// round's CompactLen, desyncs the follower and returns the reason.
func (f *Follower) Observe(round int, payload []float64) error {
	if f.desync != nil {
		return f.desync
	}
	if round != f.round+1 {
		f.desync = fmt.Errorf("core: follower at round %d cannot observe round %d", f.round, round)
		return f.desync
	}
	f.mgr.PostIterate(round, f.x)
	dense := payload
	if len(dense) != len(f.x) {
		if n := f.mgr.CompactLen(round); n != len(dense) {
			f.desync = fmt.Errorf("core: round %d payload carries %d scalars, want %d (dense) or %d (compacted)",
				round, len(dense), len(f.x), n)
			return f.desync
		}
		dense = f.mgr.ExpandDownload(round, dense)
	}
	f.mgr.ApplyDownload(round, f.x, dense)
	f.round = round
	return nil
}

// Restore overwrites the replica with round's synchronized model x and
// manager state s, and follows again from there. On error the follower is
// left desynced, so a nil s records state the caller could not adopt.
func (f *Follower) Restore(round int, x []float64, s *State) error {
	f.desync = f.restore(round, x, s)
	return f.desync
}

func (f *Follower) restore(round int, x []float64, s *State) error {
	if len(x) != len(f.x) {
		return fmt.Errorf("core: follower restore with a %d-scalar model, want %d", len(x), len(f.x))
	}
	if err := f.mgr.RestoreSnapshot(s); err != nil {
		return err
	}
	copy(f.x, x)
	f.round = round
	return nil
}

// Capture copies the synchronized model and the manager state at Round().
// ok is false while the follower is desynced or has observed nothing.
func (f *Follower) Capture() (x []float64, s *State, ok bool) {
	if f.desync != nil || f.round < 0 {
		return nil, nil, false
	}
	return append([]float64(nil), f.x...), f.mgr.Snapshot(), true
}

// NextMask returns the freezing mask governing round Round()+1, the one
// every client trains under after applying Round(). The bitmap is the
// manager's own: read-only, valid until the next Observe or Restore.
func (f *Follower) NextMask() *bitset.BitSet {
	f.mgr.refreshMask(f.round + 1)
	return f.mgr.mask
}
