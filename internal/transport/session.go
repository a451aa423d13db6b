package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"apf/internal/checkpoint"
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
		s.retire(sess, gen, err)
		return
	}
	sess.queue = append(sess.queue, frame)
	sess.sent = round + 1
	s.metrics.queueFrames.Add(1)
	sess.cond.Broadcast()
	sess.mu.Unlock()
}

// track wraps an accepted connection so its bytes count into the server
// totals, and registers it as live. A connection accepted while Run tears
// down is closed instead (nil).
func (s *Server) track(conn net.Conn) *countingConn {
	cc := &countingConn{Conn: conn, total: &s.bytes}
	s.mu.Lock()
	if s.conns == nil {
		s.mu.Unlock()
		closeQuietly(conn)
		return nil
	}
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

// retire ends a session's connection of generation gen on a failure —
// enqueue overflow, writer, reader, catch-up or Welcome write: it detaches
// the session and posts the failure to the round engine, which alone
// decides by mode whether the run aborts.
func (s *Server) retire(sess *session, gen int, err error) {
	s.detach(sess, gen)
	s.post(event{id: sess.id, name: sess.name, err: err})
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
			s.retire(sess, gen, err)
			return
		}
	}
}

// flush waits until every session's outbound queue has drained or its
// connection has died. Each pending write is bounded by the I/O deadline
// (and by the cancellation watcher closing the sockets), so the wait
// terminates. In strict mode an undelivered aggregate fails the run.
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

// spawn runs f in a goroutine that Run joins before it returns.
func (s *Server) spawn(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// acceptLoop accepts connections for the whole run. It does no I/O on
// them: each gets its own goroutine (serveConn) from its join to its
// close, so a peer that stalls its handshake delays no one else's.
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown or cancellation
		}
		if cc := s.track(conn); cc != nil {
			s.spawn(func() { s.serveConn(cc) })
		}
	}
}

// serveConn owns one connection from its join to its close: it reads the
// join, attaches the connection to its session, writes the Welcome, runs
// any catch-up conversation, starts the session's writer and becomes its
// reader. The writer starts only after the Welcome and the conversation,
// so queued aggregate frames can overtake neither. A connection that never
// becomes a session is refused and never decides the run; every later
// failure retires the session.
func (s *Server) serveConn(cc *countingConn) {
	join, err := s.readJoin(cc)
	var a *attachment
	if err == nil {
		a, err = s.attach(cc, join)
	}
	if err != nil {
		s.log.Warn("connection refused", "remote", cc.RemoteAddr().String(), "err", err)
		s.absorb(cc)
		return
	}
	sess, gen := a.sess, a.gen
	err = writeMsg(cc, s.cfg.IOTimeout, &a.welcome, &s.wireM)
	if err == nil && a.cap != nil {
		err = s.catchup(sess, cc, a.cap)
	}
	if err != nil {
		s.retire(sess, gen, err)
		return
	}
	s.spawn(func() { s.writer(sess, gen) })
	s.reader(sess, gen, cc)
}

// readJoin reads a connection's opening frame: a client join on a flat
// coordinator, a relay join on the root tier. A relay session is a plain
// join: registration, resume and replay apply unchanged.
func (s *Server) readJoin(cc *countingConn) (*JoinMsg, error) {
	m, err := readMsg(cc, s.cfg.IOTimeout, joinPayloadLimit, &s.wireM)
	if err != nil {
		return nil, err
	}
	switch j := m.(type) {
	case *JoinMsg:
		if !s.cfg.root() {
			return j, nil
		}
		return nil, protocolErrorf("expected a relay join on the root tier, got %s", m.WireKind())
	case *RelayJoinMsg:
		if s.cfg.root() {
			s.log.Info("relay joining", "relay", j.Name, "clients", j.Clients)
			return &JoinMsg{Name: j.Name, SessionKey: j.SessionKey, HaveRound: j.HaveRound}, nil
		}
		return nil, protocolErrorf("relay join on a flat coordinator")
	}
	return nil, protocolErrorf("expected a join frame, got %s", m.WireKind())
}

// attachment is a connection attached to a session: the generation it
// holds, its Welcome, and the capture its catch-up conversation serves
// (nil when the Welcome replays every missed round).
type attachment struct {
	sess    *session
	gen     int
	welcome WelcomeMsg
	cap     *catchupCapture
}

// attach binds a joining connection to its session. A join naming a known
// session key resumes that session from the join's HaveRound; any other
// join registers a fresh session while registration is open, which is the
// attach of a new session from round -1 whatever HaveRound it carries, and
// takes the next id in join arrival order. When the ledger still retains
// the rounds after the cursor, the Welcome replays them (none for a fresh
// session); when eviction dropped them, it carries CatchUp and the
// connection enters the catch-up conversation (sketch reconciliation or
// snapshot). Either way the connection's sequential GlobalMsg stream
// continues after the latest committed round. Holding s.mu across the
// attach keeps the missed list (or the capture) and the writer cursor
// consistent: no round can commit between computing one and setting the
// other.
func (s *Server) attach(cc *countingConn, join *JoinMsg) (*attachment, error) {
	s.mu.Lock()
	have := join.HaveRound
	sess, known := s.byKey[join.SessionKey]
	if !known {
		if s.regDone {
			s.mu.Unlock()
			return nil, protocolErrorf("unknown session %q joined a running cluster", join.SessionKey)
		}
		sess = newSession(len(s.sessions), join.SessionKey, join.Name)
		s.sessions = append(s.sessions, sess)
		if sess.key != "" {
			s.byKey[sess.key] = sess
		}
		if len(s.sessions) == s.cfg.peers() {
			s.regDone = true
			close(s.regReady)
		}
		have = -1
	}
	done := s.ledger.done() // rounds aggregated so far
	if have < -1 || have >= done {
		s.mu.Unlock()
		return nil, protocolErrorf("client %d (%s) claims round %d, server committed %d",
			sess.id, sess.name, have, done)
	}
	missed, replay := s.ledger.missed(have)
	a := &attachment{sess: sess, welcome: WelcomeMsg{
		ClientID:   sess.id,
		NumClients: s.cfg.peers(),
		Rounds:     s.cfg.Rounds,
		Dim:        len(s.cfg.Init),
		Round:      s.round,
		Resumed:    known,
		Missed:     missed,
		Codec:      s.cfg.Codec,
	}}
	if !replay {
		if a.cap = s.ledger.capture(); a.cap == nil {
			// Evicted past the cursor and no consistent capture to serve
			// (desynced follower, no dense commit).
			s.mu.Unlock()
			return nil, fmt.Errorf("client %d (%s) catch-up from round %d: no capture", sess.id, sess.name, have)
		}
		a.welcome.CatchUp = true
		a.welcome.MaskGen = a.cap.maskGen()
	}
	if have < 0 {
		// A peer with no applied round is a fresh session or a fresh
		// process re-attaching to its session key (client or relay
		// restart) and needs the initial model; one that has applied a
		// round never reads it.
		a.welcome.Init = s.cfg.Init
	}

	sess.mu.Lock()
	old := sess.conn
	sess.gen++
	a.gen = sess.gen
	sess.conn = cc
	sess.sent = done
	dropped := len(sess.queue)
	sess.queue = nil
	sess.inflight = false
	sess.sendErr = nil
	sess.cond.Broadcast() // release the old connection's writer
	sess.mu.Unlock()
	s.mu.Unlock()
	if !known {
		s.log.Info("session registered", "client", sess.id, "name", sess.name)
		return a, nil
	}
	s.metrics.resumes.Inc()
	s.metrics.replayedGlobals.Add(int64(len(missed)))
	s.metrics.queueFrames.Add(float64(-dropped))
	if a.cap == nil {
		s.metrics.resumeReplay.Inc()
	}
	s.log.Info("session resumed", "client", sess.id, "name", sess.name,
		"have_round", have, "replayed", len(missed), "catch_up", a.cap != nil)
	if old != nil {
		s.absorb(old)
	}
	return a, nil
}

// payloadPool is the free list of the vectors that connection readers
// decode updates into and the round engine hands back once the aggregator
// no longer holds them. It keeps at most one vector per peer — a round's
// worth; a vector handed back beyond that (a flood of re-sends) goes to
// the collector. A reader asks only once a frame's header has arrived, so
// an idle connection holds no vector. Dense payloads get model-sized
// vectors; compact ones get vectors sized to the payload (see get).
type payloadPool struct {
	dim  int
	free chan []float64
}

func newPayloadPool(dim, peers int) *payloadPool {
	return &payloadPool{dim: dim, free: make(chan []float64, peers)}
}

// get returns a vector of n scalars, recycled when a free one fits; its
// contents are undefined. Vectors are sized by checkpoint.Refit: a dense
// payload's is model-sized, a compact one's holds it and a quarter more,
// and a free vector that does not fit goes to the collector, so the
// model-sized vectors of a sparse cluster's full-length first rounds go
// once the mask has frozen most scalars.
func (p *payloadPool) get(n int) []float64 {
	if n > p.dim {
		return make([]float64, n)
	}
	var v []float64
	select {
	case v = <-p.free:
	default:
	}
	return checkpoint.Refit(v, n, p.dim)[:n]
}

// put hands a vector back for reuse. Nothing may touch it afterwards. A
// nil pool (in-process engines), empty vectors and vectors larger than
// the model are ignored.
func (p *payloadPool) put(v []float64) {
	if p == nil || cap(v) == 0 || cap(v) > p.dim {
		return
	}
	select {
	case p.free <- v[:cap(v)]:
	default:
	}
}

// reader decodes one connection's updates into the event stream until the
// connection fails; then it retires the session (a resumed connection has
// a newer generation and stays attached). Dense payloads stream into the
// server's recycled vectors, and sparse ones decode into recycled vectors
// sized to their compact payload.
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
				// The mirror of checkSparseUpdate: a full-length update
				// stored first would make the aggregator refuse every
				// compact one of the round.
				if s.cfg.Codec <= wire.CodecDense {
					s.post(event{id: sess.id, name: sess.name, upd: u, maskGen: -1})
					continue
				}
				err = protocolErrorf("client %d sent a dense update on a %s cluster", sess.id, s.cfg.Codec)
			case *SparseUpdateMsg:
				if err = s.checkSparseUpdate(sess, u); err == nil {
					// The engine aggregates the compact payload as float64
					// scalars; the sender's mask generation rides along for
					// the round's cross-check.
					dense := &UpdateMsg{
						Round:    u.Round,
						Weight:   u.Weight,
						MaskHash: u.MaskHash,
						Payload:  u.Floats(s.payloads.get(u.Scalars())),
					}
					s.post(event{id: sess.id, name: sess.name, upd: dense, maskGen: u.MaskGen})
					continue
				}
			default:
				err = protocolErrorf("expected an update frame, got %s", m.WireKind())
			}
		}
		s.retire(sess, gen, err)
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
		s.retire(sess, gen, err)
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
