package transport

import (
	"fmt"

	"apf/internal/checkpoint"
	"apf/internal/wire"
)

// ledger is a coordinator's committed log, and its only real state: every
// client's freezing state is a pure function of the committed aggregate
// trajectory, so resume replay, catch-up captures, snapshots and Run's
// result are all read from here. It changes through exactly three
// mutators — commit, jump and restore — and is guarded by Server.mu.
type ledger struct {
	dim  int
	keep int // retained rounds (ServerConfig.HistoryRounds; 0 keeps all)
	// history holds the retained committed aggregates: history[i] is round
	// base+i.
	history []GlobalMsg
	base    int
	// dense/denseRound keep the newest full-length committed payload (dense
	// nil: none yet), for the stateless catch-up fallback and Run's result.
	dense      []float64
	denseRound int
	// shadow replicates the clients' manager state (nil unless configured).
	shadow  *shadow
	metrics serverMetrics
}

// done returns how many rounds have been committed; eviction does not
// shrink it.
func (l *ledger) done() int { return l.base + len(l.history) }

// commit appends one committed aggregate, advancing the shadow replica and
// evicting rounds beyond the retention window (and the log's gauges).
// Evicting reallocates, so the dropped payloads actually become
// collectable instead of staying pinned by the backing array.
func (l *ledger) commit(g *GlobalMsg) {
	if l.shadow != nil {
		l.shadow.observe(g)
	}
	if len(g.Payload) == l.dim {
		l.dense = append(l.dense[:0], g.Payload...)
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
// g.Round never existed on this tier. The shadow adopts the snapshot's
// manager state, or is marked broken when it carries none.
func (l *ledger) jump(g *GlobalMsg, snap *wire.SnapshotMsg) {
	if sh := l.shadow; sh != nil && (len(snap.Manager) == 0 || sh.restore(snap.Round, snap.Payload, snap.Manager) != nil) {
		sh.broken = true
	}
	l.history, l.base = nil, g.Round
	l.commit(g)
}

// restore rebuilds the log from a recovered checkpoint (snapshot history
// plus WAL tail). The shadow comes back from its persisted state when one
// exists and otherwise replays the history, which is only complete on an
// unevicted log — a shadow that cannot see round 0 is marked broken rather
// than desynced silently.
func (l *ledger) restore(st *serverState) error {
	if sh := l.shadow; sh != nil {
		if st.ShadowRound >= 0 && len(st.Shadow) > 0 {
			if err := sh.restore(st.ShadowRound, st.ShadowX, st.Shadow); err != nil {
				return fmt.Errorf("transport: restore shadow replica: %w", err)
			}
		} else if st.HistoryBase > 0 {
			sh.broken = true
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

// capture cuts the current catch-up state: the shadow replica when it is
// current, else the newest dense commit when it is the last round. Nil
// when neither exists, in which case a resume past the window is refused.
func (l *ledger) capture() *catchupCapture {
	last := l.done() - 1
	if last < 0 {
		return nil
	}
	if sh := l.shadow; sh != nil && !sh.broken && sh.round == last {
		return &catchupCapture{
			cfg:   sh.cfg,
			round: last,
			gen:   sh.mgr.MaskGeneration(),
			x:     append([]float64(nil), sh.x...),
			state: sh.mgr.Snapshot(),
		}
	}
	if l.dense != nil && l.denseRound == last {
		return &catchupCapture{round: last, gen: -1, x: append([]float64(nil), l.dense...)}
	}
	return nil
}

// model returns a copy of the newest full-length committed payload, or of
// init when no round committed one (compact, mask-elided aggregates only
// update the transmitted positions on the clients).
func (l *ledger) model(init []float64) []float64 {
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
	if sh := l.shadow; sh != nil && !sh.broken && sh.round >= 0 {
		st.ShadowRound = sh.round
		st.Shadow = checkpoint.EncodeManager(sh.mgr.Snapshot())
		st.ShadowX = append([]float64(nil), sh.x...)
	}
}
