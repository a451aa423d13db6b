package transport

import (
	"fmt"

	"apf/internal/core"
	"apf/internal/wire"
)

// ledger is a coordinator's committed log, and its only real state: every
// client's freezing state is a pure function of the committed aggregate
// trajectory, so resume replay, catch-up captures, snapshots and Run's
// result are all read from here. It changes through exactly three
// mutators — commit, jump and restore — and is guarded by Server.mu.
// A committed payload is held, never copied: the history and the newest
// dense model alias it, so its owner must never recycle or mutate it
// afterwards (a buffer reused across rounds must be copied before commit).
type ledger struct {
	dim  int
	keep int // retained rounds (ServerConfig.HistoryRounds; 0 keeps all)
	// history holds the retained committed aggregates: history[i] is round
	// base+i.
	history []GlobalMsg
	base    int
	// dense/denseRound keep the newest full-length committed payload (dense
	// nil: none yet), for the stateless catch-up fallback and, without a
	// current follower, Run's result.
	dense      []float64
	denseRound int
	// follower replicates the clients' manager state (nil unless
	// ServerConfig.Shadow is set).
	follower *core.Follower
	metrics  serverMetrics
}

// done returns how many rounds have been committed; eviction does not
// shrink it.
func (l *ledger) done() int { return l.base + len(l.history) }

// commit appends one committed aggregate, advancing the follower and
// evicting rounds beyond the retention window (and the log's gauges).
// Evicting reallocates, so the dropped payloads actually become
// collectable instead of staying pinned by the backing array.
func (l *ledger) commit(g *GlobalMsg) {
	if f := l.follower; f != nil && g.Round > f.Round() {
		// A commit the follower cannot fold (a gap, a compacted payload of
		// the wrong length) desyncs it; captures then take the stateless
		// path until a restore.
		_ = f.Observe(g.Round, g.Payload)
	}
	if len(g.Payload) == l.dim {
		l.dense = g.Payload
		l.denseRound = g.Round
	}
	l.history = append(l.history, *g)
	if drop := len(l.history) - l.keep; l.keep > 0 && drop > 0 {
		l.base += drop
		l.history = append(make([]GlobalMsg, 0, l.keep), l.history[drop:]...)
		l.metrics.evictedRounds.Add(int64(drop))
	}
	l.metrics.committedRounds.Set(float64(l.done()))
	l.metrics.historyLen.Set(float64(len(l.history)))
}

// jump replaces the log with an upstream snapshot's state (a relay that
// fell off the root's history): rounds between the last commit and
// g.Round never existed on this tier. The follower adopts the snapshot's
// manager state; a snapshot without (valid) manager state leaves it
// desynced.
func (l *ledger) jump(g *GlobalMsg, snap *wire.SnapshotMsg) {
	if f := l.follower; f != nil {
		// Undecodable or absent manager state leaves st nil, and the failed
		// Restore is what records the desync: captures go stateless.
		st, _ := core.DecodeState(snap.Manager)
		_ = f.Restore(snap.Round, st)
	}
	l.history, l.base = nil, g.Round
	l.commit(g)
}

// restore rebuilds the log from a recovered checkpoint (snapshot history
// plus WAL tail). The follower comes back from its persisted state when
// one exists and otherwise replays the history, which is only complete on
// an unevicted log: a history that starts past round 0 is a gap, which
// desyncs the follower rather than leaving it silently wrong.
func (l *ledger) restore(st *serverState) error {
	if f := l.follower; f != nil && st.ShadowRound >= 0 && len(st.Shadow) > 0 {
		ms, err := core.DecodeState(st.Shadow)
		if err == nil {
			err = f.Restore(st.ShadowRound, ms)
		}
		if err != nil {
			return fmt.Errorf("transport: restore shadow replica: %w", err)
		}
	}
	l.history, l.base = nil, st.HistoryBase
	for i := range st.History {
		l.commit(&st.History[i])
	}
	return nil
}

// missed returns the retained aggregates after round have — what a peer
// that applied have still needs — or false when eviction dropped some of
// them. Caller ensures have < done(). The slice aliases the log; its
// entries are never mutated.
func (l *ledger) missed(have int) ([]GlobalMsg, bool) {
	if have+1 < l.base {
		return nil, false
	}
	return l.history[have+1-l.base:], true
}

// capture cuts the current catch-up state: the follower's when it is
// current, else the newest dense commit when it is the last round. Nil
// when neither exists, in which case a resume past the window is refused.
func (l *ledger) capture() *catchupCapture {
	last := l.done() - 1
	if last < 0 {
		return nil
	}
	if f := l.follower; f != nil && f.Round() == last {
		if st, ok := f.Capture(); ok {
			return &catchupCapture{round: last, state: st}
		}
	}
	if l.dense != nil && l.denseRound == last {
		return &catchupCapture{round: last, x: append([]float64(nil), l.dense...)}
	}
	return nil
}

// model returns a copy of the synchronized model after the last commit:
// the follower's when it is current. Otherwise it is the newest
// full-length committed payload, or init when no round committed one —
// stale once a compact, mask-elided aggregate committed after it.
func (l *ledger) model(init []float64) []float64 {
	if f := l.follower; f != nil && f.Round() == l.done()-1 {
		if st, ok := f.Capture(); ok {
			return st.Ref
		}
	}
	if l.dense != nil {
		init = l.dense
	}
	return append([]float64(nil), init...)
}

// persist copies the log's durable state into a snapshot.
func (l *ledger) persist(st *serverState) {
	st.History = append([]GlobalMsg(nil), l.history...)
	st.HistoryBase = l.base
	st.ShadowRound = -1
	if f := l.follower; f != nil {
		if ms, ok := f.Capture(); ok {
			st.ShadowRound = f.Round()
			st.Shadow = core.EncodeState(ms)
		}
	}
}
