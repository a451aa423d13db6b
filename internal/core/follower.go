package core

import "fmt"

// Follower is the server side's one replica of the clients' synchronized
// APF state: a Manager fed only committed aggregates. The freezing state
// is a pure function of the committed trajectory, so after Observe(r) the
// follower holds, bit for bit, what every client holds after applying
// round r. It keeps no model of its own: after every ApplyDownload a
// client's model equals the manager's rollback vector (frozen scalars sit
// at their last synchronized value, the pull overwrites every other one),
// so State.Ref is the synchronized model. Catch-up serves its captures
// (package transport).
//
// A follower never guesses. A gap in the rounds or a compacted payload of
// the wrong length desyncs it, and a desynced follower observes and
// captures nothing until Restore.
type Follower struct {
	mgr *Manager
	// round is the last round folded in (-1: none).
	round int
	// desync is why the replica stopped following (nil while it follows).
	desync error
}

// NewFollower builds a follower from the Config every client manager was
// built with (Seed included: random freezing draws from it).
func NewFollower(cfg Config) *Follower {
	return &Follower{mgr: NewManager(cfg), round: -1}
}

// Dim returns the model dimension.
func (f *Follower) Dim() int { return f.mgr.cfg.Dim }

// Round returns the last round folded in (-1 before the first). A desynced
// follower keeps the last round it followed.
func (f *Follower) Round() int { return f.round }

// Observe folds committed aggregate round into the replica exactly as a
// client folds it — expanded when mask-compacted, then ApplyDownload, which
// runs the stability check — with the manager's rollback vector as the
// model. Only round Round()+1 is accepted; anything else, or a compacted
// payload whose length is not the round's CompactLen, desyncs the follower
// and returns the reason.
func (f *Follower) Observe(round int, payload []float64) error {
	if f.desync != nil {
		return f.desync
	}
	if round != f.round+1 {
		f.desync = fmt.Errorf("core: follower at round %d cannot observe round %d", f.round, round)
		return f.desync
	}
	dense := payload
	if dim := f.Dim(); len(dense) != dim {
		if n := f.mgr.CompactLen(round); n != len(dense) {
			f.desync = fmt.Errorf("core: round %d payload carries %d scalars, want %d (dense) or %d (compacted)",
				round, len(dense), dim, n)
			return f.desync
		}
		dense = f.mgr.ExpandDownload(round, dense)
	}
	f.mgr.ApplyDownload(round, f.mgr.ref, dense)
	f.round = round
	return nil
}

// Restore overwrites the replica with round's full manager state s, whose
// Ref is the synchronized model, and follows again from there. On error
// the follower is left desynced, so a nil s records state the caller could
// not adopt.
func (f *Follower) Restore(round int, s *State) error {
	if s != nil && s.Words != nil {
		f.desync = fmt.Errorf("core: follower restore needs a full state, got one covering %d words", len(s.Words))
	} else if f.desync = f.mgr.RestoreSnapshot(s); f.desync == nil {
		f.round = round
	}
	return f.desync
}

// Capture copies the manager state at Round(): its Ref is the synchronized
// model and its CheckCount the mask generation. ok is false while the
// follower is desynced or has observed nothing.
func (f *Follower) Capture() (s *State, ok bool) {
	if f.desync != nil || f.round < 0 {
		return nil, false
	}
	return f.mgr.Snapshot(), true
}
