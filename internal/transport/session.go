package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"apf/internal/wire"
)

// The session layer: accept, the join/resume handshake, and the fan-out of
// committed frames through per-session writer queues.

// maxQueuedFrames bounds a session's outbound frame queue. A client that
// stops draining its connection is detached once the queue fills, instead
// of growing server memory without bound; it catches up by resuming. In
// practice the protocol's lockstep (one Update in flight per Global out)
// keeps queues at depth ≤ 2.
const maxQueuedFrames = 64

// session is the server-side state of one client, surviving reconnects.
// Each attached connection gets a dedicated writer goroutine draining
// queue, so a stalled client blocks only its own writer — never the round
// loop or another client's delivery.
type session struct {
	id   int
	key  string
	name string

	mu   sync.Mutex
	cond *sync.Cond    // signalled on queue/conn/inflight changes
	conn *countingConn // nil while disconnected
	gen  int           // bumps per attached connection; stale readers detach no-one
	sent int           // next round whose GlobalMsg this connection needs
	// queue holds encoded frames awaiting the writer goroutine; inflight
	// marks a frame popped but not yet written; sendErr is the sticky
	// write failure of the current connection.
	queue    [][]byte
	inflight bool
	sendErr  error
}

// newSession builds a session with its condition variable armed.
func newSession(id int, key, name string) *session {
	sess := &session{id: id, key: key, name: name}
	sess.cond = sync.NewCond(&sess.mu)
	return sess
}

// fanOut queues one committed round's frame on every session. The frame
// is shared, never copied: every queue holds the same backing array.
func (s *Server) fanOut(from, round int, frame []byte) {
	s.mu.Lock()
	sessions := append([]*session(nil), s.sessions...)
	s.mu.Unlock()
	for _, sess := range sessions {
		s.enqueue(sess, from, round, frame)
	}
}

// enqueue queues round's frame on a session's writer. The frame brings a
// connection whose cursor lies in [from, round] to round+1: a GlobalMsg
// frame only the cursor at its own round (from == round), a jump's
// snapshot frame any cursor (from 0). A cursor past the round already
// received it in its resume Welcome. The behind-cursor rule: no frame but
// the one being committed is kept, so a cursor behind from cannot be
// served from the queue — like a connection whose queue overflowed, it is
// detached and the peer resumes through the Welcome (in fault-tolerant
// mode; in strict mode the posted failure aborts the run).
func (s *Server) enqueue(sess *session, from, round int, frame []byte) {
	sess.mu.Lock()
	if sess.conn == nil || sess.sent > round {
		sess.mu.Unlock()
		return
	}
	var err error
	if sess.sent < from {
		err = fmt.Errorf("client %d (%s) cursor at round %d is behind committed round %d",
			sess.id, sess.name, sess.sent, round)
	} else if len(sess.queue) >= maxQueuedFrames {
		err = fmt.Errorf("client %d (%s) stopped draining: outbound queue full at %d frames",
			sess.id, sess.name, maxQueuedFrames)
	}
	if err != nil {
		gen := sess.gen
		if sess.sendErr == nil {
			sess.sendErr = err
		}
		sess.cond.Broadcast()
		sess.mu.Unlock()
		s.detach(sess, gen)
		s.post(event{id: sess.id, name: sess.name, err: err})
		return
	}
	sess.queue = append(sess.queue, frame)
	sess.sent = round + 1
	s.metrics.queueFrames.Add(1)
	sess.cond.Broadcast()
	sess.mu.Unlock()
}

// track wraps an accepted connection so its bytes count into the server
// totals, and registers it as live.
func (s *Server) track(conn net.Conn) *countingConn {
	cc := &countingConn{Conn: conn, total: &s.bytes}
	s.mu.Lock()
	s.conns[cc] = struct{}{}
	s.mu.Unlock()
	s.metrics.connsTotal.Inc()
	s.metrics.connsActive.Add(1)
	return cc
}

// absorb forgets a live connection exactly once and closes it.
func (s *Server) absorb(cc *countingConn) {
	s.mu.Lock()
	_, live := s.conns[cc]
	delete(s.conns, cc)
	s.mu.Unlock()
	if live {
		s.metrics.connsActive.Add(-1)
	}
	closeQuietly(cc)
}

// detach drops a session's connection if it still is the given
// generation, waking its writer and any flush waiter.
func (s *Server) detach(sess *session, gen int) {
	sess.mu.Lock()
	if sess.gen != gen || sess.conn == nil {
		sess.mu.Unlock()
		return
	}
	cc := sess.conn
	sess.conn = nil
	sess.cond.Broadcast()
	sess.mu.Unlock()
	s.metrics.writerDetaches.Inc()
	s.log.Warn("session detached", "client", sess.id, "name", sess.name)
	s.absorb(cc)
}

// post delivers an event to the round loop unless Run already returned.
func (s *Server) post(ev event) {
	select {
	case s.events <- ev:
	case <-s.done:
	}
}

// writer drains one connection's outbound queue, writing each frame with
// the I/O deadline. It exits when the connection is replaced (generation
// bump), detached, or fails. Frames are shared, never mutated.
func (s *Server) writer(sess *session, gen int) {
	for {
		sess.mu.Lock()
		for sess.gen == gen && sess.conn != nil && len(sess.queue) == 0 {
			sess.cond.Wait()
		}
		if sess.gen != gen || sess.conn == nil {
			sess.mu.Unlock()
			return
		}
		frame := sess.queue[0]
		sess.queue = sess.queue[1:]
		sess.inflight = true
		cc := sess.conn
		sess.mu.Unlock()
		s.metrics.queueFrames.Add(-1)

		err := writeFrame(cc, s.cfg.IOTimeout, frame, &s.wireM, wire.FrameKind(frame))

		sess.mu.Lock()
		sess.inflight = false
		if err != nil && sess.gen == gen && sess.sendErr == nil {
			sess.sendErr = err
		}
		sess.cond.Broadcast()
		sess.mu.Unlock()
		if err != nil {
			s.detach(sess, gen)
			s.post(event{id: sess.id, name: sess.name, err: err})
			return
		}
	}
}

// flush waits until every session's outbound queue has drained or its
// connection has died. Each pending write is bounded by the I/O deadline
// (and by the cancellation watcher closing the sockets), so the wait
// terminates. In strict mode an undelivered aggregate fails the run — the
// old synchronous broadcast aborted on the same condition, just earlier.
func (s *Server) flush(ctx context.Context) error {
	s.mu.Lock()
	sessions := append([]*session(nil), s.sessions...)
	rounds := s.ledger.done()
	s.mu.Unlock()
	// In fault-tolerant mode, a session severed during the final
	// broadcast gets a bounded window to resume: once Run returns the
	// listener closes, so a straggler cut at the last round's mark could
	// otherwise never fetch the final aggregates (its reconnects would be
	// refused). Resume replays the missed rounds in the welcome, so
	// "caught up" is sent == rounds with an empty, error-free queue. The
	// window is shared across sessions and bounded by the round deadline.
	var resumeDeadline time.Time
	if s.faultTolerant() {
		resumeDeadline = time.Now().Add(s.cfg.RoundDeadline)
	}
	var firstErr error
	for _, sess := range sessions {
		var err error
		var undelivered int
		for {
			sess.mu.Lock()
			// An in-flight frame is waited out even after the connection is
			// gone: a peer that reads the final aggregate and closes
			// immediately can EOF-detach the session (conn = nil) in the gap
			// between its write succeeding and the writer clearing inflight,
			// and judging that window would miscount a delivered frame as
			// undelivered. The writer always clears inflight — the write
			// carries the I/O deadline — so the wait terminates; a genuine
			// write failure surfaces through sendErr instead.
			for sess.sendErr == nil && (sess.inflight || (sess.conn != nil && len(sess.queue) > 0)) {
				sess.cond.Wait()
			}
			err = sess.sendErr
			undelivered = len(sess.queue)
			if sess.inflight {
				undelivered++
			}
			caughtUp := err == nil && undelivered == 0 && sess.sent >= rounds
			sess.mu.Unlock()
			if !s.faultTolerant() || caughtUp || ctx.Err() != nil ||
				time.Now().After(resumeDeadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if s.faultTolerant() {
			continue
		}
		if err == nil && undelivered > 0 {
			err = fmt.Errorf("client disconnected with %d aggregate(s) undelivered", undelivered)
		}
		if err != nil && firstErr == nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			firstErr = fmt.Errorf("transport: send to client %d: %w", sess.id, err)
		}
	}
	return firstErr
}

// acceptLoop serves joins — registrations and session resumes — for the
// whole run.
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown or cancellation
		}
		cc := s.track(conn)
		m, err := readMsg(cc, s.cfg.IOTimeout, joinPayloadLimit, &s.wireM)
		var join *JoinMsg
		if err == nil {
			switch j := m.(type) {
			case *JoinMsg:
				if s.cfg.root() {
					err = protocolErrorf("expected a relay join on the root tier, got %s", m.WireKind())
				} else {
					join = j
				}
			case *RelayJoinMsg:
				if !s.cfg.root() {
					err = protocolErrorf("relay join on a flat coordinator")
				} else {
					// A relay session is a plain join: the shared
					// registration, resume, and replay machinery applies
					// unchanged.
					join = &JoinMsg{Name: j.Name, SessionKey: j.SessionKey, HaveRound: j.HaveRound}
					s.log.Info("relay joining", "relay", j.Name, "clients", j.Clients)
				}
			default:
				err = protocolErrorf("expected a join frame, got %s", m.WireKind())
			}
		}
		if err != nil {
			s.mu.Lock()
			reg := s.regDone
			s.mu.Unlock()
			s.absorb(cc)
			if !reg && !s.faultTolerant() {
				// Strict registration keeps the hard barrier semantics: a
				// client that fails to join aborts the run.
				select {
				case s.regErr <- fmt.Errorf("transport: registration: %w", err):
				default:
				}
			}
			continue
		}
		s.handleJoin(cc, join)
	}
}

// handleJoin registers a fresh session or resumes an existing one.
func (s *Server) handleJoin(cc *countingConn, join *JoinMsg) {
	s.mu.Lock()
	if sess, ok := s.byKey[join.SessionKey]; ok && join.SessionKey != "" {
		s.resume(sess, cc, join)
		return // resume unlocks
	}
	if s.regDone || len(s.sessions) >= s.cfg.peers() {
		// Unknown sessions cannot join a running cluster.
		s.mu.Unlock()
		s.absorb(cc)
		return
	}
	sess := newSession(len(s.sessions), join.SessionKey, join.Name)
	sess.conn = cc
	sess.gen = 1
	s.sessions = append(s.sessions, sess)
	if sess.key != "" {
		s.byKey[sess.key] = sess
	}
	if len(s.sessions) == s.cfg.peers() {
		s.regDone = true
		close(s.regReady)
	}
	s.mu.Unlock()
	s.log.Info("session registered", "client", sess.id, "name", sess.name)

	w := WelcomeMsg{
		ClientID:   sess.id,
		NumClients: s.cfg.peers(),
		Rounds:     s.cfg.Rounds,
		Dim:        len(s.cfg.Init),
		Init:       s.cfg.Init,
		Codec:      s.cfg.Codec,
	}
	// The welcome is written directly: the session's writer goroutine only
	// starts afterwards, so queued aggregate frames cannot overtake it.
	if err := s.sendWelcome(sess, 1, &w); err != nil {
		s.detach(sess, 1)
		if !s.faultTolerant() {
			// Run may be at the registration barrier or already in the
			// round loop; feed whichever stage is listening.
			werr := fmt.Errorf("transport: welcome client %d: %w", sess.id, err)
			select {
			case s.regErr <- werr:
			default:
			}
			s.post(event{id: sess.id, name: sess.name, err: err})
		}
		return
	}
	go s.writer(sess, 1)
	go s.reader(sess, 1, cc)
}

// resume re-attaches a reconnecting client to its session. When the
// ledger still retains its round, it receives the aggregates it missed
// (HaveRound+1 … latest) for replay; when eviction dropped them, the
// Welcome instead carries CatchUp and the connection enters the catch-up
// conversation (sketch reconciliation or snapshot). Either way this
// connection's sequential GlobalMsg stream continues after the latest
// committed round. Called with s.mu held; unlocks it. Holding s.mu across
// the session swap keeps the missed list (or the catch-up capture) and the
// writer cursor (sent) consistent: no round can commit between computing
// one and setting the other.
func (s *Server) resume(sess *session, cc *countingConn, join *JoinMsg) {
	done := s.ledger.done() // rounds aggregated so far
	round := s.round
	if join.HaveRound < -1 || join.HaveRound >= done {
		s.mu.Unlock()
		s.absorb(cc) // claims rounds the server never produced
		return
	}
	missed, replay := s.ledger.missed(join.HaveRound)
	var cap *catchupCapture
	if !replay {
		if cap = s.ledger.capture(); cap == nil {
			// Evicted past the client's round and no consistent capture to
			// serve (desynced follower, no dense commit): refuse the resume.
			s.mu.Unlock()
			s.log.Warn("catch-up refused: no capture", "client", sess.id, "name", sess.name,
				"have_round", join.HaveRound)
			s.absorb(cc)
			return
		}
	}
	w := WelcomeMsg{
		ClientID:   sess.id,
		NumClients: s.cfg.peers(),
		Rounds:     s.cfg.Rounds,
		Dim:        len(s.cfg.Init),
		Round:      round,
		Resumed:    true,
		Missed:     missed,
		Codec:      s.cfg.Codec,
	}
	if join.HaveRound < 0 {
		// A peer with no applied round may be a fresh process re-attaching
		// to its session key (client or relay restart) and still needs the
		// initial model; one that has applied a round never reads it.
		w.Init = s.cfg.Init
	}
	if cap != nil {
		w.CatchUp = true
		w.MaskGen = cap.maskGen()
	}

	sess.mu.Lock()
	old := sess.conn
	sess.gen++
	gen := sess.gen
	sess.conn = cc
	sess.sent = done
	dropped := len(sess.queue)
	sess.queue = nil
	sess.inflight = false
	sess.sendErr = nil
	sess.cond.Broadcast() // release the old connection's writer
	sess.mu.Unlock()
	s.mu.Unlock()
	s.metrics.resumes.Inc()
	s.metrics.replayedGlobals.Add(int64(len(missed)))
	s.metrics.queueFrames.Add(float64(-dropped))
	if cap == nil {
		s.metrics.resumeReplay.Inc()
	}
	s.log.Info("session resumed", "client", sess.id, "name", sess.name,
		"have_round", join.HaveRound, "replayed", len(missed), "catch_up", cap != nil)
	if old != nil {
		s.absorb(old)
	}

	if err := s.sendWelcome(sess, gen, &w); err != nil {
		s.detach(sess, gen)
		return
	}
	if cap != nil {
		// The writer starts only after the conversation: queued aggregate
		// frames must not interleave with catch-up frames.
		go s.catchupSession(sess, gen, cc, cap)
		return
	}
	go s.writer(sess, gen)
	go s.reader(sess, gen, cc)
}

// sendWelcome writes the welcome frame on a session's current connection
// if it still is the given generation. The write happens outside sess.mu
// so a slow handshake never blocks the round loop's enqueues.
func (s *Server) sendWelcome(sess *session, gen int, w *WelcomeMsg) error {
	sess.mu.Lock()
	cc := sess.conn
	if sess.gen != gen || cc == nil {
		sess.mu.Unlock()
		return fmt.Errorf("connection replaced")
	}
	sess.mu.Unlock()
	return writeMsg(cc, s.cfg.IOTimeout, w, &s.wireM)
}

// payloadPool is the free list of model-sized vectors that connection
// readers decode updates into and the round engine hands back once the
// aggregator no longer holds them. It keeps at most one vector per peer —
// a round's worth; a vector handed back beyond that (a flood of re-sends)
// goes to the collector. A reader asks only once a frame's header has
// arrived, so an idle connection holds no vector.
type payloadPool struct {
	dim  int
	free chan []float64
}

func newPayloadPool(dim, peers int) *payloadPool {
	return &payloadPool{dim: dim, free: make(chan []float64, peers)}
}

// get returns a vector of n ≤ dim scalars, recycled when one is free; its
// contents are undefined.
func (p *payloadPool) get(n int) []float64 {
	if n > p.dim {
		return make([]float64, n)
	}
	select {
	case v := <-p.free:
		return v[:n]
	default:
		return make([]float64, n, p.dim)
	}
}

// put hands a vector back for reuse. Nothing may touch it afterwards. A
// nil pool (in-process engines) and vectors of another capacity are
// ignored.
func (p *payloadPool) put(v []float64) {
	if p == nil || cap(v) != p.dim {
		return
	}
	select {
	case p.free <- v[:p.dim]:
	default:
	}
}

// reader decodes one connection's updates into the event stream until the
// connection fails; then it detaches the session (a resumed connection has
// a newer generation and is left alone). Dense payloads stream into the
// server's recycled vectors, and so do sparse ones' dense expansions.
func (s *Server) reader(sess *session, gen int, cc *countingConn) {
	if s.cfg.root() {
		s.relayReader(sess, gen, cc)
		return
	}
	limit := modelPayloadLimit(len(s.cfg.Init))
	fr := wire.FrameReader{Alloc: s.payloads.get}
	for {
		m, err := readFrom(&fr, cc, s.cfg.IOTimeout, limit, &s.wireM)
		if err == nil {
			switch u := m.(type) {
			case *UpdateMsg:
				s.post(event{id: sess.id, name: sess.name, upd: u, maskGen: -1})
				continue
			case *SparseUpdateMsg:
				if err = s.checkSparseUpdate(sess, u); err == nil {
					// The engine aggregates the dense-expanded form; the
					// sender's mask generation rides along for the round's
					// cross-check.
					dense := &UpdateMsg{
						Round:    u.Round,
						Weight:   u.Weight,
						MaskHash: u.MaskHash,
						Payload:  u.Floats(s.payloads.get(0)),
					}
					s.post(event{id: sess.id, name: sess.name, upd: dense, maskGen: u.MaskGen})
					continue
				}
			default:
				err = protocolErrorf("expected an update frame, got %s", m.WireKind())
			}
		}
		s.detach(sess, gen)
		s.post(event{id: sess.id, name: sess.name, err: err})
		return
	}
}

// relayReader is reader's root-tier counterpart: it decodes one relay
// connection's partial sums into the event stream. The payload limit
// admits the packed accumulator's worst case (16 bytes per coordinate plus
// block tags; a typical frame is half that); the wire decoder has already
// validated the packed section, and a coordinate count that disagrees with
// the model is refused here, before the frame reaches the engine.
func (s *Server) relayReader(sess *session, gen int, cc *countingConn) {
	limit := partialPayloadLimit(len(s.cfg.Init))
	for {
		m, err := readMsg(cc, s.cfg.IOTimeout, limit, &s.wireM)
		if err == nil {
			if p, ok := m.(*PartialUpdateMsg); ok {
				if p.Sum.Dim() == len(s.cfg.Init) {
					s.post(event{id: sess.id, name: sess.name, part: p, maskGen: -1})
					continue
				}
				err = protocolErrorf("relay %d partial carries %d coordinates, model has %d",
					sess.id, p.Sum.Dim(), len(s.cfg.Init))
			} else {
				err = protocolErrorf("expected a partial-update frame, got %s", m.WireKind())
			}
		}
		s.detach(sess, gen)
		s.post(event{id: sess.id, name: sess.name, err: err})
		return
	}
}

// checkSparseUpdate validates a sparse update against the cluster's
// codec: the kind is only legal on a sparse cluster, the scalar encoding
// must be the codec's, and the declared dense dimension must be the run's.
func (s *Server) checkSparseUpdate(sess *session, u *SparseUpdateMsg) error {
	codec := s.cfg.Codec
	if codec <= wire.CodecDense {
		return protocolErrorf("client %d sent a sparse update on a %s cluster", sess.id, codec)
	}
	if u.Enc != codec.Enc() {
		return protocolErrorf("client %d sparse update encoding %s, cluster codec %s",
			sess.id, u.Enc, codec.Enc())
	}
	if u.Dim != len(s.cfg.Init) {
		return protocolErrorf("client %d sparse update dimension %d, model has %d",
			sess.id, u.Dim, len(s.cfg.Init))
	}
	return nil
}
