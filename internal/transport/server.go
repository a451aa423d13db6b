package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/telemetry"
	"apf/internal/telemetry/hooks"
	"apf/internal/wire"
)

// ServerConfig parameterizes an aggregation server.
type ServerConfig struct {
	// Addr is the listen address (e.g. "127.0.0.1:0").
	Addr string
	// Listener, when non-nil, is used instead of binding Addr — the hook
	// for fault-injecting wrappers (package chaos).
	Listener net.Listener
	// NumClients is the cluster size; the server waits for exactly this
	// many registrations before round 0. Ignored when Relays > 0 (the root
	// tier registers relays, not clients).
	NumClients int
	// Relays switches the server into the hierarchy's root tier: it
	// registers exactly this many edge relays (RelayJoinMsg) instead of
	// clients, collects one exact pre-aggregated PartialUpdateMsg per relay
	// per round, and broadcasts the committed aggregate back to the relays
	// — per-round root traffic and work are O(Relays), independent of how
	// many clients the edges terminate. Because the partial sums are exact
	// integer accumulators, the committed trajectory is bit-identical to a
	// flat coordinator over the same clients under any client→relay
	// partitioning. The trimmed reduction does not decompose over partial
	// sums (it needs every per-client value) and inbound sanitization runs
	// where the per-client payloads are (the relays), so NewServer rejects
	// Relays > 0 combined with fl.ReduceTrimmed or a Validator. 0 keeps the
	// flat coordinator.
	Relays int
	// Rounds is the number of aggregation rounds to run.
	Rounds int
	// Init is the initial global model distributed to every client.
	Init []float64
	// IOTimeout bounds each message exchange (default 30s). It should
	// exceed RoundDeadline plus the slowest client's training time, since
	// a connection idle past it is treated as dead.
	IOTimeout time.Duration
	// RoundDeadline enables fault-tolerant operation: after this much time
	// in a round, aggregation proceeds with the K ≤ N updates received
	// (weighted partial FedAvg), disconnected clients may resume their
	// session later, and client failures are survived rather than fatal.
	// 0 keeps the strict barrier: every round waits for all clients and
	// any failure aborts the run.
	RoundDeadline time.Duration
	// MinClients is the minimum number of updates required before a round
	// deadline may fire the aggregation (default 1). The deadline never
	// aggregates fewer; the round keeps waiting instead.
	MinClients int
	// Codec is the strongest payload codec the server will negotiate per
	// session (wire.NegotiateCodec caps it by each client's advertised
	// capabilities). CodecDense — the zero value — keeps every session on
	// the dense kinds. CodecSparseQ16 additionally rounds every
	// committed aggregate through binary16, so dense and quantized sessions
	// of one cluster observe bit-identical models.
	Codec wire.Codec
	// CheckpointDir makes the coordinator durable: the server persists a
	// snapshot plus write-ahead log under this directory and, when it
	// finds a consistent checkpoint there at startup, resumes the run
	// from it bit-exactly (committed rounds are replayed from the WAL;
	// the round left open by a crash is discarded and re-collected from
	// the clients' idempotent re-sends). Empty disables durability.
	// Recovery is only useful with RoundDeadline > 0, since a restarted
	// strict-barrier server aborts on its first disconnected client.
	CheckpointDir string
	// SnapshotEvery rotates the snapshot every K committed rounds
	// (default 5); between snapshots only the WAL grows.
	SnapshotEvery int
	// Validator, when non-nil, enables inbound update sanitization:
	// non-finite values, impossible dimensions, median-gated norm
	// outliers, and direction outliers (when CosineFloor is set) are
	// rejected with typed errors, repeat offenders are quarantined, and
	// the post-round norm review (when RoundNormMult is set) strikes
	// norm-evasive scalers. Clients and Dim are filled from the server
	// config.
	Validator *ValidatorConfig
	// Reduction selects how accepted contributions fold into the committed
	// aggregate: fl.ReduceMean (the zero value) is classic weighted
	// FedAvg; fl.ReduceTrimmed is the coordinate-wise trimmed mean, which
	// bounds the influence of any single contribution on any coordinate —
	// including attacks no inbound gate rejects. TrimFraction is its
	// per-side trim fraction (0 takes fl.DefaultTrimFraction; must stay
	// below 0.5).
	Reduction    fl.Reduction
	TrimFraction float64
	// HistoryRounds bounds the in-memory aggregate history to the most
	// recent K committed rounds (0 keeps every round). Eviction bounds
	// server memory to O(dim + sessions) over arbitrarily long runs; a
	// client whose round fell off the window resumes through the
	// catch-up protocol (snapshot or sketch reconciliation) instead of
	// the missed-payload replay, bit-exactly either way.
	HistoryRounds int
	// Shadow, when non-nil, is the core manager configuration every
	// client was built with (Dim may be left 0; it is filled from Init).
	// The server then maintains a shadow replica of the deterministic
	// manager state — advanced at every commit — which powers the
	// stateful catch-up modes: sketch reconciliation and manager-carrying
	// snapshots. Nil restricts catch-up to the stateless snapshot (model
	// payload only), which suffices for stateless clients and relays.
	Shadow *core.Config
	// Metrics, when non-nil, receives runtime metrics from every layer of
	// the server (rounds, updates, wire traffic, durability, validation).
	// Nil keeps the server metric-free at the cost of one branch per
	// record site.
	Metrics *telemetry.Registry
	// Log, when non-nil, receives structured events (round commits,
	// rejections, resumes, recovery). Nil keeps the server silent.
	Log *telemetry.Logger
}

// peers returns the size of the tier the server terminates: relays on the
// hierarchy's root, clients on a flat coordinator.
func (cfg *ServerConfig) peers() int {
	if cfg.Relays > 0 {
		return cfg.Relays
	}
	return cfg.NumClients
}

// root reports whether the server is the hierarchy's root tier.
func (cfg *ServerConfig) root() bool { return cfg.Relays > 0 }

// maxQueuedFrames bounds a session's outbound frame queue. A client that
// stops draining its connection is detached once the queue fills, instead
// of growing server memory without bound; after resuming it catches up
// through the missed-payload replay. In practice the protocol's lockstep
// (one Update in flight per Global out) keeps queues at depth ≤ 2.
const maxQueuedFrames = 64

// Server is the central FL aggregation endpoint.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	// done is closed when Run returns; it unblocks reader goroutines.
	done chan struct{}
	// events carries decoded updates and connection failures to the engine.
	events chan event
	// regErr carries a fatal registration failure (strict mode).
	regErr chan error
	// regReady is closed once all NumClients sessions registered.
	regReady chan struct{}

	// store persists snapshots and the WAL when durability is enabled;
	// startRound is the first round still to run after recovery (0 on a
	// fresh start). recovered marks that openStore restored an existing
	// checkpoint — even one with startRound still 0 (a crash inside round
	// 0), in which case the base snapshot on disk must not be re-written.
	// validator is nil unless sanitization is configured.
	store      *checkpoint.Store
	startRound int
	recovered  bool
	validator  *Validator

	// reducer and streaming configure the engine's relay face: the relay
	// installs its upstream partial-sum exchange (and streaming collection)
	// between NewServer and Run, never concurrently with either.
	reducer   roundReducer
	streaming bool

	// metrics/wireM/log are nil-safe instrumentation handles (no-ops
	// unless ServerConfig injected a registry or logger).
	metrics *serverMetrics
	wireM   *wireMetrics
	log     *telemetry.Logger

	mu    sync.Mutex
	round int // round currently being collected
	// history holds the retained committed aggregates: history[i] is round
	// histBase+i. histBase is 0 until HistoryRounds eviction starts
	// dropping old rounds.
	history  []GlobalMsg
	histBase int
	frames   []*roundFrames // per-codec encoded aggregates, parallel to history
	// shadow replicates the clients' manager state (nil unless
	// cfg.Shadow); lastDense/lastDenseRound keep the newest full-length
	// committed payload for the stateless catch-up fallback; jumpSnap is
	// an upstream snapshot staged by a relay for commitJump.
	shadow         *shadow
	lastDense      []float64
	lastDenseRound int
	jumpSnap       *wire.SnapshotMsg
	sessions       []*session // by client id, registration order
	byKey          map[string]*session
	conns          map[*countingConn]struct{} // live, un-absorbed connections
	regDone        bool
	bytesRead      int64
	bytesSent      int64
	partialRounds  int
	rejected       int // updates refused by validation/aggregation guards
}

// session is the server-side state of one client, surviving reconnects.
// Each attached connection gets a dedicated writer goroutine draining
// queue, so a stalled client blocks only its own writer — never the round
// loop or another client's delivery.
type session struct {
	id   int
	key  string
	name string

	mu sync.Mutex
	// codec is the payload codec negotiated at the session's latest join
	// (wire.NegotiateCodec of the server's cap and the client's Caps).
	codec wire.Codec
	cond  *sync.Cond    // signalled on queue/conn/inflight changes
	conn  *countingConn // nil while disconnected
	gen   int           // bumps per attached connection; stale readers detach no-one
	sent  int           // next round whose GlobalMsg this connection needs
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

// roundFrames caches the encoded forms of one committed aggregate — at
// most one immutable frame per codec, shared by every session writer, so
// encode cost stays O(1) in client count per codec actually in use. The
// dense frame is built eagerly at commit; sparse variants are built on the
// first session that needs them.
type roundFrames struct {
	g    GlobalMsg
	meta roundMeta
	dim  int // dense model dimension (sparse frame metadata)

	mu      sync.Mutex
	encoded [int(wire.CodecSparseQ16) + 1][]byte
}

// newRoundFrames builds the cache for one committed aggregate with its
// dense frame pre-encoded.
func newRoundFrames(g *GlobalMsg, meta roundMeta, dim int) *roundFrames {
	rf := &roundFrames{g: *g, meta: meta, dim: dim}
	rf.encoded[wire.CodecDense] = wire.Encode(g)
	return rf
}

// frame returns the round's frame for a session codec, encoding it on
// first request. A sparse frame is only sound when the round proved mask
// agreement (every participant attested the same non-zero hash, which the
// receiver re-checks against its own mask before expanding); rounds
// without that evidence fall back to the dense frame, which sparse
// sessions accept as well.
func (rf *roundFrames) frame(c wire.Codec) []byte {
	if c <= wire.CodecDense || int(c) >= len(rf.encoded) || rf.meta.maskHash == 0 {
		return rf.encoded[wire.CodecDense]
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.encoded[c] == nil {
		sg := &SparseGlobalMsg{
			Round:        rf.g.Round,
			Participants: rf.g.Participants,
			MaskHash:     rf.meta.maskHash,
			MaskGen:      rf.meta.maskGen,
			Dim:          rf.dim,
			Enc:          c.Enc(),
		}
		sg.Values, sg.Q = wire.PackSparse(c.Enc(), rf.g.Payload)
		rf.encoded[c] = wire.Encode(sg)
	}
	return rf.encoded[c]
}

// NewServer binds the listen socket. Call Run to serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.peers() <= 0 || cfg.Rounds <= 0 || len(cfg.Init) == 0 {
		return nil, fmt.Errorf("transport: invalid server config peers=%d rounds=%d dim=%d",
			cfg.peers(), cfg.Rounds, len(cfg.Init))
	}
	if cfg.root() {
		// The trimmed reduction inspects every per-client value per
		// coordinate, which an exact partial sum has already folded away;
		// inbound sanitization likewise needs the per-client payloads, which
		// only the relays see. Both belong on a flat topology (or, for
		// sanitization, on the relays themselves).
		if cfg.Reduction == fl.ReduceTrimmed {
			return nil, fmt.Errorf("transport: the trimmed reduction does not decompose over relay partial sums; run it on a flat topology")
		}
		if cfg.Validator != nil {
			return nil, fmt.Errorf("transport: inbound sanitization needs per-client payloads, which the root tier never sees; configure the validator on the relays")
		}
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = defaultIOTimeout
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = 1
	}
	if cfg.MinClients > cfg.peers() {
		cfg.MinClients = cfg.peers()
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 5
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addr, err)
		}
	}
	if cfg.Validator != nil && cfg.Validator.Clients != 0 && cfg.Validator.Clients != cfg.NumClients {
		closeQuietly(ln)
		return nil, fmt.Errorf("transport: validator clients %d conflicts with cluster size %d",
			cfg.Validator.Clients, cfg.NumClients)
	}
	if cfg.Reduction == fl.ReduceTrimmed && cfg.TrimFraction >= 0.5 {
		closeQuietly(ln)
		return nil, fmt.Errorf("transport: trim fraction %v leaves no survivors (must be < 0.5)", cfg.TrimFraction)
	}
	if cfg.HistoryRounds < 0 {
		closeQuietly(ln)
		return nil, fmt.Errorf("transport: negative history bound %d", cfg.HistoryRounds)
	}
	s := &Server{
		cfg:            cfg,
		ln:             ln,
		done:           make(chan struct{}),
		events:         make(chan event, cfg.peers()*4),
		regErr:         make(chan error, 1),
		regReady:       make(chan struct{}),
		byKey:          make(map[string]*session),
		conns:          make(map[*countingConn]struct{}),
		lastDenseRound: -1,
		metrics:        newServerMetrics(cfg.Metrics),
		wireM:          newWireMetrics(cfg.Metrics),
		log:            cfg.Log.With("component", "server"),
	}
	if cfg.Shadow != nil {
		scfg := *cfg.Shadow
		if scfg.Dim == 0 {
			scfg.Dim = len(cfg.Init)
		}
		if scfg.Dim != len(cfg.Init) {
			closeQuietly(ln)
			return nil, fmt.Errorf("transport: shadow dimension %d conflicts with model dimension %d",
				scfg.Dim, len(cfg.Init))
		}
		s.shadow = newShadow(scfg)
	}
	if cfg.Validator != nil {
		vcfg := *cfg.Validator
		vcfg.Clients = cfg.NumClients
		vcfg.Dim = len(cfg.Init)
		s.validator = NewValidator(vcfg)
	}
	if cfg.CheckpointDir != "" {
		if err := s.openStore(); err != nil {
			closeQuietly(ln)
			return nil, err
		}
	}
	return s, nil
}

// openStore attaches the checkpoint store and, when it holds a
// consistent checkpoint, restores the run: session table, aggregate
// history, and accounting come back exactly as committed, the round
// counter resumes after the last committed round, and the registration
// barrier is considered already passed (clients re-attach through the
// session-resume path).
func (s *Server) openStore() error {
	store, err := checkpoint.Open(s.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	// Attach durability instrumentation before recovery so the recovery
	// Load itself is observed.
	store.SetObserver(hooks.Store(s.cfg.Metrics, s.cfg.Log))
	st, err := recoverState(store, s.cfg.root())
	if err != nil {
		store.Close()
		return fmt.Errorf("transport: recover checkpoint: %w", err)
	}
	s.store = store
	if st == nil {
		return nil // fresh start: the base snapshot is written at regDone
	}
	if err := verifyRecovered(st, s.cfg); err != nil {
		store.Close()
		return err
	}
	if st.Validator != nil && s.validator != nil {
		if err := s.validator.restoreState(st.Validator); err != nil {
			store.Close()
			return err
		}
	}
	for id := range st.Keys {
		sess := newSession(id, st.Keys[id], st.Names[id])
		s.sessions = append(s.sessions, sess)
		if sess.key != "" {
			s.byKey[sess.key] = sess
		}
	}
	s.history = st.History
	s.histBase = st.HistoryBase
	// Re-frame the recovered history so the broadcast index stays aligned
	// with it (frames[i] always carries history[i]). Mask evidence is not
	// persisted, so recovered rounds serve dense frames to every codec —
	// correct, and irrelevant in practice: resuming clients catch up via
	// the Welcome's missed-payload replay, not the writer queues.
	for i := range s.history {
		s.frames = append(s.frames, newRoundFrames(&s.history[i], roundMeta{maskGen: -1}, len(s.cfg.Init)))
	}
	s.partialRounds = st.PartialRounds
	s.startRound = st.HistoryBase + len(st.History)
	// Restore the catch-up state. The shadow comes back from its persisted
	// snapshot when one exists; otherwise it replays the retained history,
	// which is only complete on an unevicted server — a shadow that cannot
	// see round 0 is marked broken rather than desynced silently. The
	// stateless fallback payload is the newest retained dense commit.
	if s.shadow != nil {
		restored := false
		if st.ShadowRound >= 0 && len(st.Shadow) > 0 {
			if err := s.shadow.restore(st.ShadowRound, st.ShadowX, st.Shadow); err != nil {
				store.Close()
				return fmt.Errorf("transport: restore shadow replica: %w", err)
			}
			restored = true
		} else if s.histBase > 0 {
			s.shadow.broken = true
		}
		if !s.shadow.broken {
			for i := range s.history {
				if restored && s.history[i].Round <= s.shadow.round {
					continue
				}
				s.shadow.observe(&s.history[i])
			}
		}
	}
	for i := len(s.history) - 1; i >= 0; i-- {
		if len(s.history[i].Payload) == len(s.cfg.Init) {
			s.lastDense = append([]float64(nil), s.history[i].Payload...)
			s.lastDenseRound = s.history[i].Round
			break
		}
	}
	s.evictLocked()
	s.recovered = true
	s.round = s.startRound
	s.regDone = true
	close(s.regReady)
	if s.metrics != nil {
		s.metrics.recoveries.Inc()
		s.metrics.recoveredRound.Set(float64(s.startRound))
		s.metrics.committedRounds.Set(float64(s.startRound))
		s.metrics.historyLen.Set(float64(len(s.history)))
	}
	s.log.Info("run recovered from checkpoint",
		"start_round", s.startRound, "sessions", len(s.sessions),
		"partial_rounds", s.partialRounds)
	return nil
}

// snapshotState captures the server's durable state under s.mu.
func (s *Server) snapshotState() *serverState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &serverState{
		NumClients:    s.cfg.peers(),
		Rounds:        s.cfg.Rounds,
		Init:          s.cfg.Init,
		History:       append([]GlobalMsg(nil), s.history...),
		HistoryBase:   s.histBase,
		PartialRounds: s.partialRounds,
		ShadowRound:   -1,
	}
	for _, sess := range s.sessions {
		st.Keys = append(st.Keys, sess.key)
		st.Names = append(st.Names, sess.name)
	}
	if s.validator != nil {
		st.Validator = s.validator.snapshotState()
	}
	if sh := s.shadow; sh != nil && !sh.broken && sh.round >= 0 {
		st.ShadowRound = sh.round
		st.Shadow = checkpoint.EncodeManager(sh.mgr.Snapshot())
		st.ShadowX = append([]float64(nil), sh.x...)
	}
	return st
}

// evictLocked drops committed rounds beyond the HistoryRounds window.
// Caller holds s.mu (or has exclusive access during recovery). Slices
// are reallocated so the dropped rounds' payloads and frames actually
// become collectable instead of staying pinned by the backing arrays.
func (s *Server) evictLocked() {
	hr := s.cfg.HistoryRounds
	if hr <= 0 || len(s.history) <= hr {
		return
	}
	drop := len(s.history) - hr
	s.histBase += drop
	s.history = append(make([]GlobalMsg, 0, hr), s.history[drop:]...)
	s.frames = append(make([]*roundFrames, 0, hr), s.frames[drop:]...)
	if s.metrics != nil {
		s.metrics.evictedRounds.Add(int64(drop))
	}
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// faultTolerant reports whether partial aggregation and resume are enabled.
func (s *Server) faultTolerant() bool { return s.cfg.RoundDeadline > 0 }

// WireBytes returns the total bytes received from and sent to clients.
func (s *Server) WireBytes() (read, sent int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	read, sent = s.bytesRead, s.bytesSent
	for cc := range s.conns {
		r, w := cc.Counts()
		read += r
		sent += w
	}
	return read, sent
}

// PartialRounds returns how many rounds aggregated fewer than NumClients
// updates (always 0 in strict mode).
func (s *Server) PartialRounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partialRounds
}

// RejectedUpdates returns how many updates the sanitization and
// aggregation guards refused.
func (s *Server) RejectedUpdates() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// Validator exposes the sanitization state (nil when disabled). Read it
// only after Run returns; the round loop owns it while running.
func (s *Server) Validator() *Validator { return s.validator }

// StartRound returns the first round the server will (or did) collect —
// 0 on a fresh start, the round after the last committed one when the
// server resumed from a checkpoint.
func (s *Server) StartRound() int { return s.startRound }

// Recovered reports whether the server restored an existing checkpoint.
// Unlike StartRound() > 0 it also covers a crash inside round 0, where
// the recovered history is still empty.
func (s *Server) Recovered() bool { return s.recovered }

// Round returns the round currently being collected. Safe to call while
// the server runs (the /healthz endpoint does).
func (s *Server) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// CommittedRounds returns how many rounds have been committed over the
// run's lifetime (eviction does not shrink it). Safe to call while the
// server runs.
func (s *Server) CommittedRounds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.histBase + len(s.history)
}

// Sessions returns how many client sessions have registered so far. Safe
// to call while the server runs; harnesses use it to stagger client
// launches so server-assigned ids follow a deterministic join order.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// track registers a live connection for byte accounting.
func (s *Server) track(cc *countingConn) {
	s.mu.Lock()
	s.conns[cc] = struct{}{}
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.connsTotal.Inc()
		s.metrics.connsActive.Add(1)
	}
}

// absorb folds a connection's byte counts into the server totals exactly
// once and closes it.
func (s *Server) absorb(cc *countingConn) {
	s.mu.Lock()
	_, live := s.conns[cc]
	if live {
		delete(s.conns, cc)
		r, w := cc.Counts()
		s.bytesRead += r
		s.bytesSent += w
	}
	s.mu.Unlock()
	if live && s.metrics != nil {
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
	if s.metrics != nil {
		s.metrics.writerDetaches.Inc()
	}
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

// Run accepts clients, drives all rounds, and returns the final global
// model. It honours ctx cancellation by tearing down the listener and all
// connections.
func (s *Server) Run(ctx context.Context) ([]float64, error) {
	defer close(s.done)
	defer func() {
		if s.store != nil {
			_ = s.store.Close()
		}
		closeQuietly(s.ln)
		s.mu.Lock()
		sessions := append([]*session(nil), s.sessions...)
		live := make([]*countingConn, 0, len(s.conns))
		for cc := range s.conns {
			live = append(live, cc)
		}
		s.mu.Unlock()
		// Release every writer goroutine before closing its socket.
		for _, sess := range sessions {
			sess.mu.Lock()
			sess.conn = nil
			sess.cond.Broadcast()
			sess.mu.Unlock()
		}
		for _, cc := range live {
			s.absorb(cc)
		}
	}()

	// Tear everything down if the context is cancelled.
	go func() {
		select {
		case <-ctx.Done():
			closeQuietly(s.ln)
			s.mu.Lock()
			for cc := range s.conns {
				closeQuietly(cc)
			}
			s.mu.Unlock()
		case <-s.done:
		}
	}()

	go s.acceptLoop()

	// Registration barrier: all NumClients sessions must exist before
	// round 0 (reconnects of registered sessions are fine meanwhile).
	select {
	case <-s.regReady:
	case err := <-s.regErr:
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	// The base snapshot makes the completed registration durable: every
	// later recovery restores the session table from it, keeping client
	// ids stable across restarts. A recovered server skips this — even
	// when startRound is still 0 (crash inside round 0), the base
	// generation is already on disk and re-writing it would be refused.
	if s.store != nil && !s.recovered {
		if err := s.store.WriteSnapshot(0, kindServerSnap, encodeServerState(s.snapshotState())); err != nil {
			return nil, err
		}
	}

	engine := &roundEngine{
		clients:    s.cfg.peers(),
		rounds:     s.cfg.Rounds,
		deadline:   s.cfg.RoundDeadline,
		minClients: s.cfg.MinClients,
		validator:  s.validator,
		events:     s.events,
		sink:       s,
		// On the root tier the peers are relays and each event carries one
		// exact pre-aggregated partial sum; partialTier switches the engine
		// to the streaming merge. On a relay the installed reducer replaces
		// the local reduction with the upstream exchange.
		partialTier: s.cfg.root(),
		reducer:     s.reducer,
		streaming:   s.streaming,
		// Config-driven, not negotiation-driven: a q16-capable server
		// quantizes commits whether or not any client negotiated q16, so
		// the committed trajectory never depends on who happens to be
		// connected (or on recovery timing).
		quantizeCommit: s.cfg.Codec == wire.CodecSparseQ16,
		reduction:      s.cfg.Reduction,
		trimFrac:       s.cfg.TrimFraction,
		metrics:        newEngineMetrics(s.cfg.Metrics),
	}
	s.mu.Lock()
	history := append([]GlobalMsg(nil), s.history...)
	s.mu.Unlock()
	global, err := engine.run(ctx, s.startRound, s.cfg.Init, history)
	if err != nil {
		return nil, err
	}
	// The engine's commits only enqueue frames; make sure the final
	// aggregates actually left the building before declaring the run done.
	if err := s.flush(ctx); err != nil {
		return nil, err
	}
	return global, nil
}

// markRound implements roundSink: it records the round being collected
// (the resume path reads it) and announces it on every live connection so
// fault-injecting wrappers (package chaos) can fire scripted faults.
func (s *Server) markRound(round int) {
	s.mu.Lock()
	s.round = round
	sessions := append([]*session(nil), s.sessions...)
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.round.Set(float64(round))
	}
	s.log.Debug("collecting round", "round", round)
	for _, sess := range sessions {
		sess.mu.Lock()
		if sess.conn != nil {
			markRound(sess.conn, round)
		}
		sess.mu.Unlock()
	}
}

// rejectUpdate implements roundSink (fault-tolerant accounting).
func (s *Server) rejectUpdate(id, round int, err error) {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
	s.metrics.recordRejection(err)
	if s.metrics != nil && s.validator != nil {
		// The validator is owned by the round loop, which is the only
		// caller here, so the read is race-free.
		s.metrics.quarantined.Set(float64(s.validator.QuarantinedCount()))
	}
	s.log.Warn("update rejected", "client", id, "round", round, "err", err)
}

// strikeClient implements roundSink: the post-round norm review charged a
// strike against an already-aggregated update. No rejection is counted —
// the update did fold into the round — but the quarantine gauge may move.
func (s *Server) strikeClient(id, round int, err error) {
	if s.metrics != nil && s.validator != nil {
		s.metrics.quarantined.Set(float64(s.validator.QuarantinedCount()))
	}
	s.log.Warn("post-round review strike", "client", id, "round", round, "err", err)
}

// commitRound implements roundSink. Commit before broadcast: once any
// client observes round R, a restarted server must still know it, or
// resume would refuse the client for claiming rounds the server never
// produced. The aggregate is encoded into a single frame shared by every
// session's outbound queue, so serialization cost is O(1) in client count
// and delivery never blocks the round loop.
func (s *Server) commitRound(g *GlobalMsg, meta roundMeta, partial bool) error {
	if s.store != nil {
		if err := s.store.Append(kindWALGlobal, encodeWALGlobal(g)); err != nil {
			return err
		}
	}
	rf := newRoundFrames(g, meta, len(s.cfg.Init))
	s.mu.Lock()
	if s.shadow != nil {
		// Inside the commit's critical section, so a concurrent resume's
		// capture always matches the committed history exactly.
		s.shadow.observe(g)
	}
	if len(g.Payload) == len(s.cfg.Init) {
		if s.lastDense == nil {
			s.lastDense = make([]float64, len(s.cfg.Init))
		}
		copy(s.lastDense, g.Payload)
		s.lastDenseRound = g.Round
	}
	s.history = append(s.history, *g)
	s.frames = append(s.frames, rf)
	s.evictLocked()
	if partial {
		s.partialRounds++
	}
	sessions := append([]*session(nil), s.sessions...)
	frames := s.frames
	base := s.histBase
	committed := base + len(s.history)
	retained := len(s.history)
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.roundsTotal.Inc()
		s.metrics.committedRounds.Set(float64(committed))
		s.metrics.historyLen.Set(float64(retained))
		if partial {
			s.metrics.partialRounds.Inc()
		}
	}
	s.log.Info("round committed",
		"round", g.Round, "participants", g.Participants, "partial", partial)
	if s.store != nil && (g.Round+1)%s.cfg.SnapshotEvery == 0 {
		if err := s.store.WriteSnapshot(g.Round+1, kindServerSnap, encodeServerState(s.snapshotState())); err != nil {
			return err
		}
	}
	for _, sess := range sessions {
		s.enqueueGlobals(sess, g.Round, frames, base)
	}
	return nil
}

// commitJump implements roundSink: a relay adopting the root's state
// after its own upstream catch-up commits a round discontinuity. The
// snapshot staged by the exchange replaces the retained history outright
// — rounds between the relay's last commit and the jump never existed
// on this tier — and every attached downstream session receives the
// snapshot frame itself, which clients and nested relays apply through
// the same catch-up machinery. Commit-before-broadcast still holds: the
// jumped state reaches the checkpoint store before any session can
// observe it.
func (s *Server) commitJump(g *GlobalMsg) error {
	snap := s.takeJump()
	if snap == nil || snap.Round != g.Round {
		return fmt.Errorf("transport: commitJump without a staged snapshot for round %d", g.Round)
	}
	frame := wire.Encode(snap)
	s.mu.Lock()
	if s.shadow != nil {
		if len(snap.Manager) > 0 {
			if err := s.shadow.restore(snap.Round, snap.Payload, snap.Manager); err != nil {
				s.shadow.broken = true
			}
		} else {
			s.shadow.broken = true
		}
	}
	if s.lastDense == nil {
		s.lastDense = make([]float64, len(s.cfg.Init))
	}
	copy(s.lastDense, g.Payload)
	s.lastDenseRound = g.Round
	s.histBase = g.Round
	s.history = []GlobalMsg{*g}
	s.frames = []*roundFrames{newRoundFrames(g, roundMeta{maskGen: -1}, len(s.cfg.Init))}
	s.round = g.Round + 1
	sessions := append([]*session(nil), s.sessions...)
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.committedRounds.Set(float64(g.Round + 1))
		s.metrics.historyLen.Set(1)
	}
	s.log.Info("history jumped to upstream snapshot", "round", g.Round)
	if s.store != nil {
		if err := s.store.WriteSnapshot(g.Round+1, kindServerSnap, encodeServerState(s.snapshotState())); err != nil {
			return err
		}
	}
	for _, sess := range sessions {
		s.enqueueJump(sess, snap.Round, frame)
	}
	return nil
}

// enqueueJump queues the snapshot frame on one session's writer and
// advances its cursor past the jumped round.
func (s *Server) enqueueJump(sess *session, round int, frame []byte) {
	sess.mu.Lock()
	if sess.conn == nil || sess.sent > round {
		sess.mu.Unlock()
		return
	}
	gen := sess.gen
	if len(sess.queue) >= maxQueuedFrames {
		err := fmt.Errorf("client %d (%s) stopped draining: outbound queue full at %d frames",
			sess.id, sess.name, maxQueuedFrames)
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
	if s.metrics != nil {
		s.metrics.queueFrames.Add(1)
	}
	sess.cond.Broadcast()
	sess.mu.Unlock()
}

// enqueueGlobals queues every not-yet-sent aggregate frame (up to round)
// on a session's writer, keeping per-connection GlobalMsg delivery
// strictly sequential. frames is an immutable suffix snapshot of s.frames
// covering rounds base…round; each entry serves the frame variant of the
// session's negotiated codec. A queue overflow means the client stopped
// draining: the session is detached (it catches up via resume in
// fault-tolerant mode; in strict mode the posted failure aborts the run).
func (s *Server) enqueueGlobals(sess *session, round int, frames []*roundFrames, base int) {
	sess.mu.Lock()
	if sess.conn == nil {
		// Disconnected: a later resume replays the history instead.
		sess.mu.Unlock()
		return
	}
	gen := sess.gen
	codec := sess.codec
	for r := sess.sent; r <= round; r++ {
		if len(sess.queue) >= maxQueuedFrames || r < base {
			// Overflow — or (r < base, unreachable while attached since
			// eviction never outpaces a live cursor) the retained window no
			// longer covers this connection's next round.
			err := fmt.Errorf("client %d (%s) stopped draining: outbound queue full at %d frames",
				sess.id, sess.name, maxQueuedFrames)
			if sess.sendErr == nil {
				sess.sendErr = err
			}
			sess.cond.Broadcast()
			sess.mu.Unlock()
			s.detach(sess, gen)
			s.post(event{id: sess.id, name: sess.name, err: err})
			return
		}
		frame := frames[r-base].frame(codec)
		sess.queue = append(sess.queue, frame)
		sess.sent = r + 1
		if s.metrics != nil {
			s.metrics.queueFrames.Add(1)
			if wire.FrameKind(frame) == wire.KindSparseGlobal {
				// What this broadcast would have cost on a dense session of
				// the same round. Lossless sparse frames usually cost a few
				// metadata bytes MORE (the scalars are identical — dense
				// payloads are already mask-compacted); the quantized codec
				// is where the wire actually shrinks.
				if saved := len(frames[r-base].frame(wire.CodecDense)) - len(frame); saved > 0 {
					s.metrics.sparseSavedBytes.Add(int64(saved))
				}
			}
		}
	}
	sess.cond.Broadcast()
	sess.mu.Unlock()
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
		if s.metrics != nil {
			s.metrics.queueFrames.Add(-1)
		}

		err := writeFrame(cc, s.cfg.IOTimeout, frame, s.wireM, wire.FrameKind(frame))

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
	rounds := s.histBase + len(s.history)
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
			undelivered = len(sess.queue) + boolToInt(sess.inflight)
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

// boolToInt counts a pending in-flight frame.
func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// acceptLoop serves joins — registrations and session resumes — for the
// whole run.
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutdown or cancellation
		}
		cc := &countingConn{Conn: conn}
		s.track(cc)
		m, err := readMsg(cc, s.cfg.IOTimeout, joinPayloadLimit, s.wireM)
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
					// A relay session is a join with no codec capabilities:
					// the upstream leg is always dense (the relay folds
					// whatever its clients negotiated into exact fixed-point
					// columns), so the shared registration, resume, and
					// replay machinery applies unchanged.
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
	sess.codec = wire.NegotiateCodec(s.cfg.Codec, join.Caps)
	s.sessions = append(s.sessions, sess)
	if sess.key != "" {
		s.byKey[sess.key] = sess
	}
	if len(s.sessions) == s.cfg.peers() {
		s.regDone = true
		close(s.regReady)
	}
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.codecSessions[sess.codec].Add(1)
	}
	s.log.Info("session negotiated", "client", sess.id, "name", sess.name,
		"codec", sess.codec.String())

	w := WelcomeMsg{
		ClientID:   sess.id,
		NumClients: s.cfg.peers(),
		Rounds:     s.cfg.Rounds,
		Dim:        len(s.cfg.Init),
		Init:       s.cfg.Init,
		Codec:      sess.codec,
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
// retained history still covers its round, it receives the aggregates it
// missed (HaveRound+1 … latest) for replay; when eviction dropped them,
// the Welcome instead carries CatchUp and the connection enters the
// catch-up conversation (sketch reconciliation or snapshot).
// Either way this connection's sequential GlobalMsg stream continues
// after the latest committed round. Called with s.mu held; unlocks it.
// Holding s.mu across the session swap keeps the missed list (or the
// catch-up capture) and the writer cursor (sent) consistent: no round
// can commit between computing one and setting the other.
func (s *Server) resume(sess *session, cc *countingConn, join *JoinMsg) {
	done := s.histBase + len(s.history) // rounds aggregated so far
	round := s.round
	if join.HaveRound < -1 || join.HaveRound >= done {
		s.mu.Unlock()
		s.absorb(cc) // claims rounds the server never produced
		return
	}
	var missed []GlobalMsg
	var cap *catchupCapture
	if join.HaveRound+1 >= s.histBase {
		missed = s.history[join.HaveRound+1-s.histBase : done-s.histBase]
	} else if cap = s.captureLocked(); cap == nil {
		// Evicted past the client's round and no consistent capture to
		// serve (broken shadow, no dense commit): refuse the resume.
		s.mu.Unlock()
		s.log.Warn("catch-up refused: no capture", "client", sess.id, "name", sess.name,
			"have_round", join.HaveRound)
		s.absorb(cc)
		return
	}
	// Renegotiate from the fresh Caps: the session's codec tracks what the
	// currently attached client actually speaks. The missed replay above
	// stays dense regardless, so resume reconstruction is codec-independent.
	codec := wire.NegotiateCodec(s.cfg.Codec, join.Caps)
	w := WelcomeMsg{
		ClientID:   sess.id,
		NumClients: s.cfg.peers(),
		Rounds:     s.cfg.Rounds,
		Dim:        len(s.cfg.Init),
		Round:      round,
		Resumed:    true,
		Missed:     missed,
		Codec:      codec,
	}
	if join.HaveRound < 0 {
		// A peer with no applied round may be a fresh process re-attaching
		// to its session key (client or relay restart) and still needs the
		// initial model; one that has applied a round never reads it.
		w.Init = s.cfg.Init
	}
	if cap != nil {
		w.CatchUp = true
		w.MaskGen = cap.gen
	}

	sess.mu.Lock()
	old := sess.conn
	sess.gen++
	gen := sess.gen
	sess.conn = cc
	sess.codec = codec
	sess.sent = done
	dropped := len(sess.queue)
	sess.queue = nil
	sess.inflight = false
	sess.sendErr = nil
	sess.cond.Broadcast() // release the old connection's writer
	sess.mu.Unlock()
	s.mu.Unlock()
	if s.metrics != nil {
		s.metrics.resumes.Inc()
		s.metrics.replayedGlobals.Add(int64(len(missed)))
		s.metrics.queueFrames.Add(float64(-dropped))
		s.metrics.codecSessions[codec].Add(1)
		if cap == nil {
			s.metrics.resumeReplay.Inc()
		}
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
	return writeMsg(cc, s.cfg.IOTimeout, w, s.wireM)
}

// reader decodes one connection's updates into the event stream until the
// connection fails; then it detaches the session (a resumed connection has
// a newer generation and is left alone).
func (s *Server) reader(sess *session, gen int, cc *countingConn) {
	if s.cfg.root() {
		s.relayReader(sess, gen, cc)
		return
	}
	limit := modelPayloadLimit(len(s.cfg.Init))
	for {
		m, err := readMsg(cc, s.cfg.IOTimeout, limit, s.wireM)
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
						Payload:  u.Floats(nil),
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
		m, err := readMsg(cc, s.cfg.IOTimeout, limit, s.wireM)
		if err == nil {
			if p, ok := m.(*PartialUpdateMsg); ok {
				if p.Sum.Dim() == len(s.cfg.Init) {
					s.post(event{id: sess.id, name: sess.name, part: p})
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

// checkSparseUpdate validates a sparse update against the session's
// negotiated codec: the kind is only legal on sparse sessions, the scalar
// encoding must be the negotiated one, and the declared dense dimension
// must be the run's.
func (s *Server) checkSparseUpdate(sess *session, u *SparseUpdateMsg) error {
	sess.mu.Lock()
	codec := sess.codec
	sess.mu.Unlock()
	if codec <= wire.CodecDense {
		return protocolErrorf("client %d sent a sparse update on a %s session", sess.id, codec)
	}
	if u.Enc != codec.Enc() {
		return protocolErrorf("client %d sparse update encoding %s, session negotiated %s",
			sess.id, u.Enc, codec.Enc())
	}
	if u.Dim != len(s.cfg.Init) {
		return protocolErrorf("client %d sparse update dimension %d, model has %d",
			sess.id, u.Dim, len(s.cfg.Init))
	}
	return nil
}
