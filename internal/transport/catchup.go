package transport

// O(diff) resume: when a client's round has fallen off the server's
// bounded replay history (ServerConfig.HistoryRounds), the
// catch-up exchange replaces the full-history replay. With
// ServerConfig.Shadow set, the ledger feeds every commit to a
// core.Follower, the server's replica of the clients' deterministic
// manager state — the manager is a pure function of the committed global
// trajectory, so observing each commit reproduces every client's
// post-apply state bit for bit. A resume takes a capture of it (the
// manager snapshot, whose Ref is the model), and the returning client
// catches up against that capture in one exchange: it offers its
// per-word generation vector (core.Manager.WordGens) and the server
// answers with one snapshot, in one of two modes:
//
//   - sketch (O(dim/64 + diff) bytes): the offer's vector, 8 B per
//     64-scalar mask word, differs from the capture's in exactly the
//     words whose state differs, and the snapshot is the capture
//     restricted to those words (core.State.Select), model scalars
//     included — no word when nothing moved, every word when everything
//     did. Past the vector, cost scales with how much state actually
//     changed, not with the absence length.
//   - snapshot (O(dim) bytes): the encoded manager snapshot in one
//     bounded frame, or the model alone when the capture is stateless.
//     Cost is flat in the absence length; the answer to stateless
//     managers, relays (always-dense tier), and clients that lost their
//     local state entirely, which offer no vector.
//
// Either mode ends with the client bit-identical to a never-severed
// twin, because both rebuild the exact replica state the replay would
// have produced. Server memory stays O(dim + sessions): the bounded
// history plus one follower (and the captures of exchanges in flight).

import (
	"errors"
	"fmt"
	"time"

	"apf/internal/bitset"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/wire"
)

// ErrFutureGeneration is returned (wrapped) when a catch-up peer's mask
// generation is ahead of the server's: the client claims freezing state
// the server never produced, so no reconciliation can be trusted. The
// client fails fast (not retryable); the server logs and drops the
// connection.
var ErrFutureGeneration = errors.New("transport: mask generation ahead of the server")

// snapshotPayloadLimit bounds a SnapshotMsg frame: the manager state's
// seven per-scalar arrays (its Ref is the model, which the frame does not
// repeat) are 56 B/scalar, and its per-word generations, seeded bits and
// (word-restricted) word list under 0.4 B/scalar, so 64·dim plus slack
// admits every snapshot, full, word-restricted or stateless (8 B/scalar),
// while still rejecting hostile length fields before allocation.
func snapshotPayloadLimit(dim int) int { return dim*64 + 4096 }

// snapshotRestorer is the manager surface snapshot catch-up needs: the
// import of a full or word-restricted state (core.Manager implements it).
// A stateful manager without it cannot adopt a snapshot, which is a
// configuration error surfaced as a protocol violation.
type snapshotRestorer interface {
	RestoreSnapshot(s *core.State) error
}

// reconManager is the client manager surface a word-restricted catch-up
// needs: per-word generation tracking plus the state import. Structural,
// so transport carries no hard dependency on the concrete manager.
type reconManager interface {
	WordGens() []uint32
	snapshotRestorer
}

// catchupCapture is one atomic cut of the server's catch-up state
// (ledger.capture), taken under Server.mu at resume time and then served
// without locks: the exchange never blocks the round loop, and commits
// that land meanwhile reach the client through its (already positioned)
// writer queue.
type catchupCapture struct {
	round int
	// state is the follower's manager snapshot (its Ref is the model, its
	// CheckCount the mask generation); a sketch's words are selected from
	// it. Nil on the stateless path, where only round and the model x ship.
	state *core.State
	x     []float64
}

// maskGen returns the captured mask generation, -1 on the stateless path.
func (c *catchupCapture) maskGen() int {
	if c.state == nil {
		return -1
	}
	return c.state.CheckCount
}

// catchup drives one catch-up exchange to completion on the connection's
// own goroutine, before the session's writer starts, so queued aggregate
// frames can never interleave with the snapshot.
func (s *Server) catchup(sess *session, cc *countingConn, cap *catchupCapture) error {
	start := time.Now()
	r0, w0 := cc.Counts()
	mode, err := s.runCatchup(cc, cap)
	r1, w1 := cc.Counts()
	s.metrics.catchupBytes.Observe(float64((r1 - r0) + (w1 - w0)))
	s.metrics.catchupSeconds.Observe(time.Since(start).Seconds())
	switch mode {
	case "sketch":
		s.metrics.resumeSketch.Inc()
	case "snapshot":
		s.metrics.resumeSnapshot.Inc()
	}
	if err != nil {
		s.log.Warn("catch-up failed", "client", sess.id, "name", sess.name,
			"mode", mode, "err", err)
		return err
	}
	s.log.Info("catch-up complete", "client", sess.id, "name", sess.name,
		"mode", mode, "round", cap.round, "seconds", time.Since(start).Seconds())
	return nil
}

// runCatchup reads the client's offer and writes the snapshot answering
// it. Returns the mode served ("sketch"/"snapshot") for accounting; a
// refused offer serves none.
func (s *Server) runCatchup(cc *countingConn, cap *catchupCapture) (string, error) {
	m, err := readMsg(cc, s.cfg.IOTimeout, modelPayloadLimit(len(s.cfg.Init)), &s.wireM)
	if err != nil {
		return "", err
	}
	offer, ok := m.(*wire.ResumeOfferMsg)
	if !ok {
		return "", protocolErrorf("expected a resume offer, got %s", m.WireKind())
	}
	mode, reply, err := cap.answer(offer)
	if err != nil {
		return "", err
	}
	return mode, writeMsg(cc, s.cfg.IOTimeout, reply, &s.wireM)
}

// answer is the server's side of the exchange: the one snapshot that
// brings the offering peer level with the capture, and its mode. An offer
// with a generation vector gets the capture restricted to the words whose
// generations differ from it (sketch); one without, or any offer against
// a stateless capture, gets the whole capture (snapshot).
func (c *catchupCapture) answer(offer *wire.ResumeOfferMsg) (string, *wire.SnapshotMsg, error) {
	if offer.MaskGen > c.maskGen() {
		return "", nil, fmt.Errorf("%w: client offers generation %d, server captured %d",
			ErrFutureGeneration, offer.MaskGen, c.maskGen())
	}
	if offer.Gens == nil || c.state == nil {
		return "snapshot", c.snapshot(c.state), nil
	}
	if len(offer.Gens) != len(c.state.WordGen) {
		return "", nil, protocolErrorf("catch-up offer holds %d word generations, the model has %d words",
			len(offer.Gens), len(c.state.WordGen))
	}
	words := []int{}
	for w, g := range c.state.WordGen {
		if offer.Gens[w] != g {
			words = append(words, w)
		}
	}
	part, err := c.state.Select(words)
	if err != nil {
		return "", nil, err
	}
	return "sketch", c.snapshot(part), nil
}

// snapshot frames st, a full or word-restricted capture state that
// carries the model as its Ref, or on the stateless path (st nil) the
// canonical post-round model alone.
func (c *catchupCapture) snapshot(st *core.State) *wire.SnapshotMsg {
	if st == nil {
		return &wire.SnapshotMsg{Round: c.round, Payload: c.x}
	}
	return &wire.SnapshotMsg{Round: c.round, Manager: core.EncodeState(st)}
}

// catchUp is the requesting side of the exchange, entered when the resume
// Welcome w carries CatchUp; applied and dim are the peer's round cursor
// and model dimension. With a manager tracking word generations it offers
// its generation vector when the server has a stateful capture to compare
// against; otherwise (a stateless manager, or a relay, whose upstream leg
// carries no manager state: manager nil) it offers none, which requests
// the snapshot outright. It returns the snapshot that answers the offer,
// for the caller to validate and apply, and the vector it offered (nil if
// none), which a word-restricted snapshot must differ from in every word
// it covers.
func (u *uplink) catchUp(conn *countingConn, w *WelcomeMsg, applied, dim int, manager fl.SyncManager) (*wire.SnapshotMsg, []uint32, error) {
	own := -1
	if g, ok := fl.As[fl.MaskGenerationReporter](manager); ok {
		own = g.MaskGeneration()
	}
	if own > w.MaskGen {
		// The server cannot reproduce freezing state this peer already
		// holds (rolled-back server, or a stateless server behind stateful
		// clients): fail fast instead of adopting a regressed replica.
		return nil, nil, fmt.Errorf("%w: local generation %d, server offers %d",
			ErrFutureGeneration, own, w.MaskGen)
	}
	offer := &wire.ResumeOfferMsg{Round: applied, MaskGen: -1}
	if rm, ok := fl.As[reconManager](manager); ok && applied >= 0 && w.MaskGen >= 0 {
		offer.MaskGen, offer.Gens = own, rm.WordGens()
	}
	if err := writeMsg(conn, u.ioTimeout, offer, &u.wireM); err != nil {
		return nil, nil, fmt.Errorf("transport: catch-up offer: %w", err)
	}
	m, err := readMsg(conn, u.ioTimeout, snapshotPayloadLimit(dim), &u.wireM)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: catch-up: %w", err)
	}
	sm, ok := m.(*wire.SnapshotMsg)
	if !ok {
		return nil, nil, protocolErrorf("catch-up: unexpected %s frame", m.WireKind())
	}
	return sm, offer.Gens, nil
}

// applySnapshot adopts a snapshot frame: the manager state for stateful
// managers, and the model (checkSnapshot). gens is the generation vector
// this client offered (nil if none): a word-restricted snapshot must
// cover only words whose generations differ from it, and installs just
// those words; every other frame must be full. Also the handler for a
// mid-run snapshot broadcast (the server jumped its history forward
// after its own upstream catch-up).
func (r *clientRun) applySnapshot(sm *wire.SnapshotMsg, gens []uint32) error {
	st, model, err := checkSnapshot(sm, r.applied, r.dim, gens)
	if err != nil {
		return err
	}
	if sr, ok := fl.As[snapshotRestorer](r.rep.Manager); ok {
		if st == nil {
			return protocolErrorf("snapshot carries no manager state for a stateful manager")
		}
		if err := sr.RestoreSnapshot(st); err != nil {
			return protocolErrorf("snapshot manager state: %v", err)
		}
	}
	if st != nil && st.Words != nil {
		bitset.ScatterWords(r.rep.X, model, st.Words)
		r.finishCatchUp(sm.Round, len(st.Words), "sketch")
		return nil
	}
	copy(r.rep.X, model)
	r.finishCatchUp(sm.Round, 0, "snapshot")
	return nil
}

// finishCatchUp installs the reconciled state, already written into the
// replica's model, as the applied round: round cursor, in-flight update
// (now superseded), accounting, and the OnRound callback — the same
// post-apply surface applyGlobal presents.
func (r *clientRun) finishCatchUp(round, words int, mode string) {
	from := r.applied
	r.applied = round
	r.inflight = r.inflight[:0]
	r.metrics.round.Set(float64(round))
	switch mode {
	case "sketch":
		r.metrics.catchupSketch.Inc()
	case "snapshot":
		r.metrics.catchupSnapshot.Inc()
	}
	r.log.Info("caught up", "mode", mode, "from", from, "round", round, "diff_words", words)
	if r.cfg.OnRound != nil {
		r.cfg.OnRound(round, r.rep.X)
	}
}
