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
//     the diff word indices and receives exactly those words' state
//     (DeltaMsg), exported word by word from the captured snapshot.
//     Cost scales with how much state actually changed, not with the
//     absence length or the model size.
//   - snapshot (O(dim) bytes): the full current model plus the
//     checkpoint-encoded manager snapshot in one bounded frame.
//     Cost is flat in the absence length; the fallback for stateless
//     managers, relays (always-dense tier), non-converging sketches,
//     and clients that lost their local state entirely.
//
// Either mode ends with the client bit-identical to a never-severed
// twin, because both rebuild the exact replica state the replay would
// have produced. Server memory stays O(dim + sessions): the bounded
// history plus one follower (and the captures of conversations in
// flight).

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"apf/internal/checkpoint"
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

// snapshotPayloadLimit bounds a catch-up frame (SnapshotMsg, DeltaMsg):
// the manager snapshot carries ~8 dim-length arrays (64 B/scalar) and a
// delta word block peaks near 66 B/scalar, so 80·dim plus slack admits
// both while still rejecting hostile length fields before allocation.
func snapshotPayloadLimit(dim int) int { return dim*80 + 4096 }

// Sketch batches double from 16 cells up to 1024 per round trip: tiny
// diffs decode from the first batch, large ones converge in a few
// exchanges without shipping the worst case up front.
const (
	sketchBatchStart = 16
	sketchBatchMax   = 1024
)

// reconManager is the client manager surface sketch reconciliation
// needs: per-word generation tracking plus word-granular state import
// (core.Manager implements it). Structural, so transport carries no
// hard dependency on the concrete manager.
type reconManager interface {
	WordGens() []uint32
	ApplyWordBlock(b core.WordBlock, x []float64) error
	ApplySyncHeader(h core.SyncHeader) error
}

// snapshotRestorer is the manager surface snapshot catch-up needs
// (core.Manager implements it). A stateful manager without it cannot
// adopt a snapshot, which is a configuration error surfaced as a
// protocol violation.
type snapshotRestorer interface {
	RestoreSnapshot(s *core.State) error
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
	// where only Round and x ship. Sketch deltas are exported from it.
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
		msg.Manager = checkpoint.EncodeManager(cap.state)
	}
	return writeMsg(cc, s.cfg.IOTimeout, msg, &s.wireM)
}

// serveSketch streams coded cells over the capture's (word, generation)
// set in doubling batches, lockstep with the client's offers, until the
// client reports the decoded diff (answered with a DeltaMsg) or either
// side gives up (answered with the snapshot). The total cell budget
// bounds a hostile or hopeless decoder: past ~2 cells per word the
// sketch cannot beat the snapshot it is trying to avoid.
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
			return "sketch", s.sendDelta(cc, cap, offer.Words)
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

// sendDelta closes a decoded sketch: the manager-global header plus the
// full state of exactly the requested words, exported from the captured
// snapshot (the follower keeps advancing meanwhile). Indices are validated
// and deduplicated before any export, so a hostile word list cannot
// amplify the response past one model.
func (s *Server) sendDelta(cc *countingConn, cap *catchupCapture, words []int) error {
	total := len(cap.state.WordGen)
	if len(words) > total {
		return protocolErrorf("delta requests %d words, model has %d", len(words), total)
	}
	d := &wire.DeltaMsg{Round: cap.round, MaskGen: cap.gen, Header: cap.state.SyncHeader()}
	seen := make(map[int]bool, len(words))
	for _, w := range words {
		if w < 0 || w >= total || seen[w] {
			return protocolErrorf("delta word index %d out of range or duplicated", w)
		}
		seen[w] = true
		d.Words = append(d.Words, cap.state.WordBlock(w, cap.x))
	}
	return writeMsg(cc, s.cfg.IOTimeout, d, &s.wireM)
}

// catchUp is the requesting side of the conversation, entered when the
// resume Welcome w carries CatchUp; applied and dim are the peer's round
// cursor and model dimension. With a manager tracking word generations it
// opens in sketch mode when the server has a stateful capture to
// reconcile against; otherwise (a stateless manager, or a relay, whose
// upstream leg carries no manager state: manager nil) it requests the
// snapshot outright. It returns the frame that closes the conversation, a
// snapshot or a delta, for the caller to validate and apply.
func (u *uplink) catchUp(conn *countingConn, w *WelcomeMsg, applied, dim int, manager fl.SyncManager) (*wire.SnapshotMsg, *wire.DeltaMsg, error) {
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
				reply.Words = diffWords(dec)
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
		case *wire.DeltaMsg:
			if rm == nil || dec != nil && !dec.Decoded() {
				return nil, nil, protocolErrorf("delta before the sketch decoded")
			}
			return nil, msg, nil
		case *wire.SnapshotMsg:
			// The server may force the snapshot at any point (budget
			// exhausted, stateless capture).
			return msg, nil, nil
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

// applyDelta merges a sketch-mode delta: the full state of exactly the
// differing words, plus the manager-global header. Words with equal
// generations are bit-identical by the replica-identity invariant, so
// the untouched remainder of the local state is already the server's.
func (r *clientRun) applyDelta(d *wire.DeltaMsg) error {
	rm, _ := fl.As[reconManager](r.rep.Manager) // catchUp accepts a delta only then
	if d.Round <= r.applied {
		return protocolErrorf("catch-up delta for round %d at applied round %d", d.Round, r.applied)
	}
	for i := range d.Words {
		if err := rm.ApplyWordBlock(d.Words[i], r.rep.X); err != nil {
			return protocolErrorf("catch-up delta word %d: %v", d.Words[i].Word, err)
		}
	}
	if err := rm.ApplySyncHeader(d.Header); err != nil {
		return protocolErrorf("catch-up delta header: %v", err)
	}
	r.finishCatchUp(d.Round, len(d.Words), "sketch")
	return nil
}

// applySnapshot adopts a snapshot frame: model payload, and — for
// stateful managers — the manager snapshot. Also the handler for a
// mid-run snapshot broadcast (the server jumped its history forward
// after its own upstream catch-up).
func (r *clientRun) applySnapshot(sm *wire.SnapshotMsg) error {
	if err := checkSnapshot(sm, r.applied, r.dim); err != nil {
		return err
	}
	if sr, ok := fl.As[snapshotRestorer](r.rep.Manager); ok {
		if len(sm.Manager) == 0 {
			return protocolErrorf("snapshot carries no manager state for a stateful manager")
		}
		st, err := checkpoint.DecodeManager(sm.Manager)
		if err != nil {
			return protocolErrorf("snapshot manager state: %v", err)
		}
		if err := sr.RestoreSnapshot(st); err != nil {
			return protocolErrorf("snapshot manager state: %v", err)
		}
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
