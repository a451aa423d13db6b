package transport

// O(diff) resume: when a client's round has fallen off the server's
// bounded replay history (ServerConfig.HistoryRounds), the
// catch-up sub-protocol replaces the full-history replay. With
// ServerConfig.Shadow set, the ledger feeds every commit to a
// core.Follower, the server's replica of the clients' deterministic
// manager state — the manager is a pure function of the committed global
// trajectory, so observing each commit reproduces every client's
// post-apply state bit for bit. A resume takes a capture of it (model plus
// manager snapshot), and the returning client reconciles against that
// capture in one of two modes, chosen by its opening ResumeOffer:
//
//   - sketch (O(diff) bytes): the server streams rateless-IBLT cells
//     coded over its (mask-word, generation) set until the client's
//     decoder peels the symmetric difference; the client answers with
//     the diff word indices and receives a snapshot of exactly those
//     words: the captured state restricted to them (core.State.Select)
//     and their model scalars. Cost scales with how much state actually
//     changed, not with the absence length or the model size.
//   - snapshot (O(dim) bytes): the full current model plus the encoded
//     manager snapshot in one bounded frame. Cost is flat in the
//     absence length; the fallback for stateless managers, relays
//     (always-dense tier), non-converging sketches, and clients that
//     lost their local state entirely.
//
// Either mode ends with the client bit-identical to a never-severed
// twin, because both rebuild the exact replica state the replay would
// have produced. Server memory stays O(dim + sessions): the bounded
// history plus one follower (and the captures of conversations in
// flight).

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"apf/internal/bitset"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/recon"
	"apf/internal/wire"
)

// ErrFutureGeneration is returned (wrapped) when a catch-up peer's mask
// generation is ahead of the server's: the client claims freezing state
// the server never produced, so no reconciliation can be trusted. The
// client fails fast (not retryable); the server logs and drops the
// connection.
var ErrFutureGeneration = errors.New("transport: mask generation ahead of the server")

// snapshotPayloadLimit bounds a SnapshotMsg frame: the model plus the
// manager state's seven per-scalar arrays are 64 B/scalar, and its per-word
// generations, seeded bits and (word-restricted) word list under 0.4
// B/scalar, so 80·dim plus slack admits every snapshot, full or
// word-restricted, while still rejecting hostile length fields before
// allocation.
func snapshotPayloadLimit(dim int) int { return dim*80 + 4096 }

// Sketch batches double from 16 cells up to 1024 per round trip: tiny
// diffs decode from the first batch, large ones converge in a few
// exchanges without shipping the worst case up front.
const (
	sketchBatchStart = 16
	sketchBatchMax   = 1024
)

// snapshotRestorer is the manager surface snapshot catch-up needs: the
// import of a full or word-restricted state (core.Manager implements it).
// A stateful manager without it cannot adopt a snapshot, which is a
// configuration error surfaced as a protocol violation.
type snapshotRestorer interface {
	RestoreSnapshot(s *core.State) error
}

// reconManager is the client manager surface sketch reconciliation
// needs: per-word generation tracking plus the state import. Structural,
// so transport carries no hard dependency on the concrete manager.
type reconManager interface {
	WordGens() []uint32
	snapshotRestorer
}

// catchupCapture is one atomic cut of the server's catch-up state
// (ledger.capture), taken under Server.mu at resume time and then served
// without locks: the conversation never blocks the round loop, and
// commits that land meanwhile reach the client through its (already
// positioned) writer queue.
type catchupCapture struct {
	round int
	// gen is the captured mask generation (-1 for the stateless path).
	gen int
	x   []float64
	// state is the follower's manager snapshot; nil on the stateless path,
	// where only Round and x ship. A decoded sketch's words are selected
	// from it.
	state *core.State
}

// catchupSession drives one catch-up conversation to completion and
// then promotes the connection to a normal session (writer + reader).
// It runs on its own goroutine; the session's writer is not started
// until the conversation ends, so queued aggregate frames can never
// interleave with catch-up frames.
func (s *Server) catchupSession(sess *session, gen int, cc *countingConn, cap *catchupCapture) {
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
		s.detach(sess, gen)
		s.post(event{id: sess.id, name: sess.name, err: err})
		return
	}
	s.log.Info("catch-up complete", "client", sess.id, "name", sess.name,
		"mode", mode, "round", cap.round, "seconds", time.Since(start).Seconds())
	go s.writer(sess, gen)
	go s.reader(sess, gen, cc)
}

// runCatchup reads the client's opening offer and serves the chosen
// mode. Returns the mode actually served ("sketch"/"snapshot") for
// accounting; mode is best-effort on errors.
func (s *Server) runCatchup(cc *countingConn, cap *catchupCapture) (string, error) {
	m, err := readMsg(cc, s.cfg.IOTimeout, modelPayloadLimit(len(s.cfg.Init)), &s.wireM)
	if err != nil {
		return "", err
	}
	offer, ok := m.(*wire.ResumeOfferMsg)
	if !ok {
		return "", protocolErrorf("expected a resume offer, got %s", m.WireKind())
	}
	if offer.NeedMore || offer.Words != nil {
		return "", protocolErrorf("catch-up opened mid-conversation (need-more=%v, %d words)",
			offer.NeedMore, len(offer.Words))
	}
	if offer.MaskGen > cap.gen {
		return "", fmt.Errorf("%w: client offers generation %d, server captured %d",
			ErrFutureGeneration, offer.MaskGen, cap.gen)
	}
	if offer.MaskGen < 0 || cap.state == nil || len(cap.state.WordGen) == 0 {
		return "snapshot", s.sendSnapshot(cc, cap)
	}
	return s.serveSketch(cc, cap)
}

// sendSnapshot ships the captured state in one frame: the canonical
// post-round model, plus the manager snapshot when the capture has one.
func (s *Server) sendSnapshot(cc *countingConn, cap *catchupCapture) error {
	msg := &wire.SnapshotMsg{Round: cap.round, MaskGen: cap.gen, Payload: cap.x}
	if cap.state != nil {
		msg.Manager = core.EncodeState(cap.state)
	}
	return writeMsg(cc, s.cfg.IOTimeout, msg, &s.wireM)
}

// serveSketch streams coded cells over the capture's (word, generation)
// set in doubling batches, lockstep with the client's offers, until the
// client reports the decoded diff (answered with a snapshot of those
// words) or either side gives up (answered with the full snapshot). The
// total cell budget bounds a hostile or hopeless decoder: past ~2 cells
// per word the sketch cannot beat the snapshot it is trying to avoid.
func (s *Server) serveSketch(cc *countingConn, cap *catchupCapture) (string, error) {
	enc := recon.NewEncoder()
	for w, g := range cap.state.WordGen {
		enc.Add(recon.PackWordGen(w, g))
	}
	words := len(cap.state.WordGen)
	budget := 2*words + 128
	limit := modelPayloadLimit(len(s.cfg.Init))
	sent := 0
	batch := sketchBatchStart
	for {
		n := batch
		if batch < sketchBatchMax {
			batch *= 2
		}
		if sent+n > budget {
			n = budget - sent
		}
		if n <= 0 {
			return "snapshot", s.sendSnapshot(cc, cap)
		}
		sm := &wire.SketchMsg{Round: cap.round, MaskGen: cap.gen, Start: sent,
			Cells: make([]recon.Cell, n)}
		for i := range sm.Cells {
			sm.Cells[i] = enc.Next()
		}
		if err := writeMsg(cc, s.cfg.IOTimeout, sm, &s.wireM); err != nil {
			return "sketch", err
		}
		sent += n
		m, err := readMsg(cc, s.cfg.IOTimeout, limit, &s.wireM)
		if err != nil {
			return "sketch", err
		}
		offer, ok := m.(*wire.ResumeOfferMsg)
		if !ok {
			return "sketch", protocolErrorf("expected a resume offer, got %s", m.WireKind())
		}
		switch {
		case offer.MaskGen > cap.gen:
			return "sketch", fmt.Errorf("%w: client offers generation %d, server captured %d",
				ErrFutureGeneration, offer.MaskGen, cap.gen)
		case offer.Words != nil:
			// The capture restricted to the decoded words: their state and
			// model scalars. Select takes only a strictly ascending list
			// within the model, so a hostile one cannot amplify the reply
			// past one model.
			state, err := cap.state.Select(offer.Words)
			if err != nil {
				return "sketch", protocolErrorf("catch-up word list: %v", err)
			}
			return "sketch", s.sendSnapshot(cc, &catchupCapture{round: cap.round, gen: cap.gen,
				x: bitset.GatherWords(cap.x, offer.Words), state: state})
		case offer.NeedMore:
			continue
		case offer.MaskGen < 0:
			// The client's decoder gave up; it is now awaiting the snapshot.
			return "snapshot", s.sendSnapshot(cc, cap)
		default:
			return "sketch", protocolErrorf("resume offer neither requests cells nor closes the sketch")
		}
	}
}

// catchUp is the requesting side of the conversation, entered when the
// resume Welcome w carries CatchUp; applied and dim are the peer's round
// cursor and model dimension. With a manager tracking word generations it
// opens in sketch mode when the server has a stateful capture to
// reconcile against; otherwise (a stateless manager, or a relay, whose
// upstream leg carries no manager state: manager nil) it requests the
// snapshot outright. It returns the snapshot that closes the conversation,
// for the caller to validate and apply, and the word list this peer sent
// (nil if none), the only coverage a word-restricted snapshot may have.
func (u *uplink) catchUp(conn *countingConn, w *WelcomeMsg, applied, dim int, manager fl.SyncManager) (*wire.SnapshotMsg, []int, error) {
	own := -1
	if g, ok := fl.As[fl.MaskGenerationReporter](manager); ok {
		own = g.MaskGeneration()
	}
	rm, _ := fl.As[reconManager](manager)
	if own > w.MaskGen {
		// The server cannot reproduce freezing state this peer already
		// holds (rolled-back server, or a stateless server behind stateful
		// clients): fail fast instead of adopting a regressed replica.
		return nil, nil, fmt.Errorf("%w: local generation %d, server offers %d",
			ErrFutureGeneration, own, w.MaskGen)
	}
	var dec *recon.Decoder
	var words []int
	offer := &wire.ResumeOfferMsg{Round: applied, MaskGen: -1}
	if rm != nil && applied >= 0 && w.MaskGen >= 0 {
		offer.MaskGen = own
		dec = recon.NewDecoder()
		for wi, g := range rm.WordGens() {
			dec.AddLocal(recon.PackWordGen(wi, g))
		}
	}
	if err := writeMsg(conn, u.ioTimeout, offer, &u.wireM); err != nil {
		return nil, nil, fmt.Errorf("transport: catch-up offer: %w", err)
	}
	budget := 2*((dim+63)/64) + 64
	for {
		m, err := readMsg(conn, u.ioTimeout, snapshotPayloadLimit(dim), &u.wireM)
		if err != nil {
			return nil, nil, fmt.Errorf("transport: catch-up: %w", err)
		}
		switch msg := m.(type) {
		case *wire.SketchMsg:
			if dec == nil {
				return nil, nil, protocolErrorf("sketch cells on a snapshot catch-up")
			}
			if len(msg.Cells) == 0 {
				return nil, nil, protocolErrorf("empty sketch batch")
			}
			if msg.Start != dec.Cells() {
				return nil, nil, protocolErrorf("sketch batch starts at cell %d, decoder expects %d",
					msg.Start, dec.Cells())
			}
			for _, c := range msg.Cells {
				dec.AddCell(c)
			}
			reply := &wire.ResumeOfferMsg{Round: applied, MaskGen: own}
			switch {
			case dec.Decoded():
				words = diffWords(dec)
				reply.Words = words
			case dec.Cells() >= budget:
				// Not converging (heavy diff): bail to the snapshot, which
				// this conversation's next frame will be.
				reply.MaskGen = -1
				dec = nil
			default:
				reply.NeedMore = true
			}
			if err := writeMsg(conn, u.ioTimeout, reply, &u.wireM); err != nil {
				return nil, nil, fmt.Errorf("transport: catch-up reply: %w", err)
			}
		case *wire.SnapshotMsg:
			// The server may force the full snapshot at any point (budget
			// exhausted, stateless capture).
			return msg, words, nil
		default:
			return nil, nil, protocolErrorf("catch-up: unexpected %s frame", m.WireKind())
		}
	}
}

// diffWords maps the decoded symmetric difference to sorted, unique
// mask-word indices: a word differs if either side holds a generation
// symbol for it the other lacks.
func diffWords(dec *recon.Decoder) []int {
	seen := make(map[int]bool)
	words := []int{}
	add := func(ss []recon.Symbol) {
		for _, s := range ss {
			if w := s.Word(); !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
	}
	add(dec.Remote())
	add(dec.Missing())
	sort.Ints(words)
	return words
}

// applySnapshot adopts a snapshot frame: model payload, and — for
// stateful managers — the manager state. words is the word list this
// client sent (nil if none): a word-restricted snapshot must cover exactly
// it, and installs just those words; every other frame must be full. Also
// the handler for a mid-run snapshot broadcast (the server jumped its
// history forward after its own upstream catch-up).
func (r *clientRun) applySnapshot(sm *wire.SnapshotMsg, words []int) error {
	sr, stateful := fl.As[snapshotRestorer](r.rep.Manager)
	var st *core.State
	if stateful {
		if len(sm.Manager) == 0 {
			return protocolErrorf("snapshot carries no manager state for a stateful manager")
		}
		var err error
		if st, err = core.DecodeState(sm.Manager); err != nil {
			return protocolErrorf("snapshot manager state: %v", err)
		}
	}
	part := st != nil && st.Words != nil
	n := r.dim
	if part {
		if words == nil || !slices.Equal(st.Words, words) {
			return protocolErrorf("snapshot covers %d words, %d requested", len(st.Words), len(words))
		}
		n = len(st.Ref)
	}
	if err := checkSnapshot(sm, r.applied, n); err != nil {
		return err
	}
	if stateful {
		if err := sr.RestoreSnapshot(st); err != nil {
			return protocolErrorf("snapshot manager state: %v", err)
		}
	}
	if part {
		bitset.ScatterWords(r.rep.X, sm.Payload, st.Words)
		r.finishCatchUp(sm.Round, len(st.Words), "sketch")
		return nil
	}
	copy(r.rep.X, sm.Payload)
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
