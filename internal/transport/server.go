package transport

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// ServerConfig parameterizes an aggregation server. NewServer refuses a
// negative duration or count; zero selects the documented default.
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
	// Relays > 0 combined with a nonzero TrimFraction or a Validator. 0
	// keeps the flat coordinator.
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
	// Codec is the cluster's payload codec. The server announces it in
	// every Welcome, and a client or relay configured with another refuses
	// the session. CodecDense — the zero value — keeps every session on
	// the dense kinds. CodecSparseQ16 additionally rounds every committed
	// aggregate through binary16, so the dense frames of rounds without
	// mask evidence carry exactly the values a quantized frame would.
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
	// median-gated norm outliers and direction outliers (when CosineFloor
	// is set) are rejected with typed errors, repeat offenders — of these
	// gates and of the aggregator's finiteness and bound checks — are
	// quarantined, and the post-round norm review (when RoundNormMult is
	// set) strikes norm-evasive scalers. Clients is filled from the server
	// config; Dim is cleared, since the reader bounds every update's
	// length.
	Validator *ValidatorConfig
	// TrimFraction selects how accepted contributions fold into the
	// committed aggregate: 0 (the zero value) is classic weighted FedAvg; a
	// per-side fraction in (0, 0.5) is the coordinate-wise trimmed mean,
	// which bounds the influence of any single contribution on any
	// coordinate — including attacks no inbound gate rejects. NewServer
	// refuses a fraction outside [0, 0.5).
	TrimFraction float64
	// HistoryRounds bounds the in-memory aggregate history to the most
	// recent K committed rounds (0 keeps every round). Eviction bounds
	// server memory to O(dim + sessions) over arbitrarily long runs; a
	// client whose round fell off the window resumes through the
	// catch-up exchange (a snapshot of the words whose generations
	// differ, or of the whole state) instead of the missed-payload
	// replay, bit-exactly either way.
	HistoryRounds int
	// Shadow, when non-nil, is the core manager configuration every
	// client was built with (Dim may be left 0; it is filled from Init).
	// The server then feeds every commit to a core.Follower, a replica of
	// the clients' deterministic manager state, which powers the
	// stateful catch-up modes: word-restricted and full manager-carrying
	// snapshots (whose state's Ref is the model). Nil restricts catch-up
	// to the stateless snapshot (model payload only), which suffices for
	// stateless clients and relays.
	Shadow *core.Config
	// Metrics, when non-nil, receives runtime metrics from every layer of
	// the server (rounds, updates, wire traffic, durability, validation).
	// Nil keeps the server metric-free.
	Metrics *telemetry.Registry
	// Log, when non-nil, receives structured events (round commits,
	// rejections, resumes, recovery). Nil keeps the server silent.
	Log *slog.Logger
}

// peers returns the size of the tier the server terminates: relays on the
// hierarchy's root, clients on a flat coordinator.
func (cfg *ServerConfig) peers() int {
	if cfg.Relays > 0 {
		return cfg.Relays
	}
	return cfg.NumClients
}

// check refuses a config the server cannot honour, short of the run's
// geometry (Rounds, Init), which a relay learns only from the root's
// Welcome. Zero selects a setting's documented default; a negative
// duration or count has no meaning, so it is refused rather than read as
// zero.
func (cfg *ServerConfig) check() error {
	if cfg.NumClients < 0 || cfg.Relays < 0 || cfg.MinClients < 0 || cfg.SnapshotEvery < 0 || cfg.HistoryRounds < 0 {
		return fmt.Errorf("transport: negative count in server config clients=%d relays=%d min-clients=%d snapshot-every=%d history-rounds=%d",
			cfg.NumClients, cfg.Relays, cfg.MinClients, cfg.SnapshotEvery, cfg.HistoryRounds)
	}
	if max(cfg.NumClients, cfg.Relays) > fl.MaxContributors {
		return fmt.Errorf("transport: server config clients=%d relays=%d past the %d contributions one round folds",
			cfg.NumClients, cfg.Relays, fl.MaxContributors)
	}
	if cfg.IOTimeout < 0 || cfg.RoundDeadline < 0 {
		return fmt.Errorf("transport: negative duration in server config io-timeout=%v round-deadline=%v",
			cfg.IOTimeout, cfg.RoundDeadline)
	}
	if cfg.root() {
		// The trimmed reduction inspects every per-client value per
		// coordinate, which an exact partial sum has already folded away;
		// inbound sanitization likewise needs the per-client payloads, which
		// only the relays see. Both belong on a flat topology (or, for
		// sanitization, on the relays themselves).
		if cfg.TrimFraction != 0 {
			return fmt.Errorf("transport: the trimmed reduction does not decompose over relay partial sums; run it on a flat topology")
		}
		if cfg.Validator != nil {
			return fmt.Errorf("transport: inbound sanitization needs per-client payloads, which the root tier never sees; configure the validator on the relays")
		}
	}
	if !(cfg.TrimFraction >= 0 && cfg.TrimFraction < 0.5) {
		return fmt.Errorf("transport: trim fraction %v outside [0, 0.5)", cfg.TrimFraction)
	}
	if cfg.Validator != nil && cfg.Validator.Clients != 0 && cfg.Validator.Clients != cfg.NumClients {
		return fmt.Errorf("transport: validator clients %d conflicts with cluster size %d",
			cfg.Validator.Clients, cfg.NumClients)
	}
	return nil
}

// root reports whether the server is the hierarchy's root tier.
func (cfg *ServerConfig) root() bool { return cfg.Relays > 0 }

// Server is the central FL aggregation endpoint: the committed log
// (ledger), the session layer fanning committed frames out to peers
// (session.go), the checkpoint store, and the round engine driving them.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	// done is closed when Run returns; it unblocks reader goroutines.
	done chan struct{}
	// wg counts the goroutines Run starts (spawn) — the accept loop and
	// each connection's reader and writer — and Run joins them before it
	// returns.
	wg sync.WaitGroup
	// events carries decoded updates and connection failures to the engine.
	events chan event
	// regReady is closed once all NumClients sessions registered.
	regReady chan struct{}

	// store persists snapshots and the WAL when durability is enabled;
	// startRound is the first round still to run after recovery (0 on a
	// fresh start). recovered marks that openStore restored an existing
	// checkpoint — even one with startRound still 0 (a crash inside round
	// 0), in which case the base snapshot on disk must not be re-written.
	// validator is nil unless sanitization is configured. walEnc and
	// snapEnc are the commit record's and the snapshot's encoding buffers,
	// reused by commitRound and rotate (engine goroutine only).
	store      *checkpoint.Store
	walEnc     checkpoint.Writer
	snapEnc    checkpoint.Writer
	startRound int
	recovered  bool
	validator  *Validator

	// reducer replaces the engine's local reduction (the relay's upstream
	// exchange); nil on the flat coordinator and the root.
	reducer roundReducer
	// payloads recycles the vectors client updates are decoded into
	// (readers take, the engine hands back); nil on the root, whose peers
	// send partial sums.
	payloads *payloadPool

	// metrics/wireM/log are instrumentation handles (no-ops unless
	// ServerConfig injected a registry or logger); storeM and storeLog
	// are set by openStore.
	metrics  serverMetrics
	wireM    wireMetrics
	log      *slog.Logger
	storeM   storeMetrics
	storeLog *slog.Logger

	// bytes totals every client connection's traffic, counted at each
	// Read and Write (countingConn).
	bytes byteCount

	mu            sync.Mutex
	round         int // round currently being collected
	ledger        ledger
	sessions      []*session // by client id, registration order
	byKey         map[string]*session
	conns         map[*countingConn]struct{} // live, un-absorbed connections; nil once Run returns
	regDone       bool
	partialRounds int
	rejected      int // updates refused by validation/aggregation guards
}

// NewServer binds the listen socket. Call Run to serve.
func NewServer(cfg ServerConfig) (*Server, error) { return newServer(cfg, nil) }

// newServer builds a server whose engine hands every closed round to
// reducer instead of reducing locally; reducer is nil except on a relay's
// downward face.
func newServer(cfg ServerConfig, reducer roundReducer) (*Server, error) {
	if cfg.peers() <= 0 || cfg.Rounds <= 0 || len(cfg.Init) == 0 {
		return nil, fmt.Errorf("transport: invalid server config peers=%d rounds=%d dim=%d",
			cfg.peers(), cfg.Rounds, len(cfg.Init))
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.IOTimeout == 0 {
		cfg.IOTimeout = defaultIOTimeout
	}
	if cfg.MinClients == 0 {
		cfg.MinClients = 1
	}
	if cfg.MinClients > cfg.peers() {
		cfg.MinClients = cfg.peers()
	}
	if cfg.SnapshotEvery == 0 {
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
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		done:     make(chan struct{}),
		events:   make(chan event, cfg.peers()*4),
		regReady: make(chan struct{}),
		reducer:  reducer,
		byKey:    make(map[string]*session),
		conns:    make(map[*countingConn]struct{}),
		metrics:  newServerMetrics(cfg.Metrics),
		wireM:    newWireMetrics(cfg.Metrics),
		log:      telemetry.With(cfg.Log, "component", "server"),
	}
	s.ledger = ledger{dim: len(cfg.Init), keep: cfg.HistoryRounds, metrics: s.metrics}
	if !cfg.root() {
		s.payloads = newPayloadPool(len(cfg.Init), cfg.peers())
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
		s.ledger.follower = core.NewFollower(scfg)
	}
	if cfg.Validator != nil {
		vcfg := *cfg.Validator
		vcfg.Clients = cfg.NumClients
		// The reader refuses an update longer than the model as a
		// protocol error, so the validator judges only statistics.
		vcfg.Dim = 0
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
// consistent checkpoint, restores the run: session table, committed log,
// and accounting come back exactly as committed, the round counter
// resumes after the last committed round, and the registration barrier is
// considered already passed (clients re-attach through the session-resume
// path).
func (s *Server) openStore() error {
	store, err := checkpoint.Open(s.cfg.CheckpointDir)
	if err != nil {
		return err
	}
	s.storeM = newStoreMetrics(s.cfg.Metrics)
	s.storeLog = telemetry.With(s.cfg.Log, "component", "checkpoint")
	st, err := s.loadStore(store)
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
	if err := s.ledger.restore(st); err != nil {
		store.Close()
		return err
	}
	for id := range st.Keys {
		sess := newSession(id, st.Keys[id], st.Names[id])
		s.sessions = append(s.sessions, sess)
		if sess.key != "" {
			s.byKey[sess.key] = sess
		}
	}
	s.partialRounds = st.PartialRounds
	s.startRound = s.ledger.done()
	s.recovered = true
	s.round = s.startRound
	s.regDone = true
	close(s.regReady)
	s.metrics.recoveries.Inc()
	s.metrics.recoveredRound.Set(float64(s.startRound))
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
		PartialRounds: s.partialRounds,
	}
	s.ledger.persist(st)
	for _, sess := range s.sessions {
		st.Keys = append(st.Keys, sess.key)
		st.Names = append(st.Names, sess.name)
	}
	if s.validator != nil {
		st.Validator = s.validator.snapshotState()
	}
	return st
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// faultTolerant reports whether partial aggregation and resume are enabled.
func (s *Server) faultTolerant() bool { return s.cfg.RoundDeadline > 0 }

// WireBytes returns the total bytes received from and sent to clients.
func (s *Server) WireBytes() (read, sent int64) { return s.bytes.load() }

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
	return s.ledger.done()
}

// Sessions returns how many client sessions have registered so far. Safe
// to call while the server runs.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Run accepts clients, drives all rounds, and returns the final global
// model: the catch-up follower's model when ServerConfig.Shadow is set and
// the follower kept up with every commit, bit-equal to every client's;
// otherwise the newest full-length commit (or Init when none), which
// misses whatever compacted, mask-elided commits updated after it. It
// honours ctx cancellation by tearing down the listener and all
// connections. It returns only once every goroutine it started has ended:
// done releases those posting an event, the teardown closes every socket
// the others block on, and wg joins them.
func (s *Server) Run(ctx context.Context) ([]float64, error) {
	defer s.wg.Wait()
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
		s.conns = nil // track closes connections accepted from now on
		s.mu.Unlock()
		s.metrics.connsActive.Add(-float64(len(live)))
		// Release every writer goroutine before closing its socket.
		for _, sess := range sessions {
			sess.mu.Lock()
			sess.conn = nil
			sess.cond.Broadcast()
			sess.mu.Unlock()
		}
		for _, cc := range live {
			closeQuietly(cc)
		}
	}()

	// Tear everything down if the context is cancelled.
	defer watch(ctx, func() {
		closeQuietly(s.ln)
		s.mu.Lock()
		for cc := range s.conns {
			closeQuietly(cc)
		}
		s.mu.Unlock()
	})()

	s.spawn(s.acceptLoop)

	// Registration barrier: all NumClients sessions must exist before
	// round 0 (reconnects of registered sessions are fine meanwhile).
	select {
	case <-s.regReady:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	// The base snapshot makes the completed registration durable: every
	// later recovery restores the session table from it, keeping client
	// ids stable across restarts. A recovered server skips this — even
	// when startRound is still 0 (crash inside round 0), the base
	// generation is already on disk and re-writing it would be refused.
	if !s.recovered {
		if err := s.rotate(0); err != nil {
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
		// to the streaming merge. On a relay the reducer replaces the local
		// reduction with the upstream exchange.
		partialTier: s.cfg.root(),
		reducer:     s.reducer,
		payloads:    s.payloads,
		// Config-driven: the committed trajectory never depends on who
		// happens to be connected (or on recovery timing).
		quantizeCommit: s.cfg.Codec == wire.CodecSparseQ16,
		trimFrac:       s.cfg.TrimFraction,
		metrics:        newEngineMetrics(s.cfg.Metrics),
	}
	if err := engine.run(ctx, s.startRound); err != nil {
		return nil, err
	}
	// The engine's commits only enqueue frames; make sure the final
	// aggregates actually left the building before declaring the run done.
	if err := s.flush(ctx); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledger.model(s.cfg.Init), nil
}

// markRound implements roundSink: it records the round being collected
// (the resume path reads it) and announces it on every live connection so
// fault-injecting wrappers (package chaos) can fire scripted faults.
func (s *Server) markRound(round int) {
	s.mu.Lock()
	s.round = round
	sessions := append([]*session(nil), s.sessions...)
	s.mu.Unlock()
	s.metrics.round.Set(float64(round))
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
	if s.validator != nil {
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
	if s.validator != nil {
		s.metrics.quarantined.Set(float64(s.validator.QuarantinedCount()))
	}
	s.log.Warn("post-round review strike", "client", id, "round", round, "err", err)
}

// commitRound implements roundSink. Commit before broadcast: once any
// client observes round R, a restarted server must still know it, or
// resume would refuse the client for claiming rounds the server never
// produced. The aggregate is encoded once, into a single frame shared by
// every session's outbound queue, so serialization cost is O(1) in client
// count and delivery never blocks the round loop; no frame outlives its
// queues.
func (s *Server) commitRound(g *GlobalMsg, meta roundMeta, partial bool) error {
	if err := s.appendCommit(g); err != nil {
		return err
	}
	frame := s.roundFrame(g, meta)
	s.mu.Lock()
	// Inside the critical section, so a concurrent resume's missed list or
	// capture always matches its cursor.
	s.ledger.commit(g)
	if partial {
		s.partialRounds++
	}
	s.mu.Unlock()
	s.metrics.roundsTotal.Inc()
	if partial {
		s.metrics.partialRounds.Inc()
	}
	s.log.Info("round committed",
		"round", g.Round, "participants", g.Participants, "partial", partial)
	if (g.Round+1)%s.cfg.SnapshotEvery == 0 {
		if err := s.rotate(g.Round + 1); err != nil {
			return err
		}
	}
	s.fanOut(g.Round, g.Round, frame)
	return nil
}

// roundFrame encodes a committed aggregate in the cluster's codec: sparse
// when the codec is sparse and the round proved mask agreement (every
// participant attested the same non-zero hash, which the receiver
// re-checks against its own mask before expanding), dense otherwise. The
// root tier always frames dense: relays read dense globals.
func (s *Server) roundFrame(g *GlobalMsg, meta roundMeta) []byte {
	c := s.cfg.Codec
	if c < wire.CodecSparse || meta.maskHash == 0 || s.cfg.root() {
		return wire.Encode(g)
	}
	return wire.Encode(&SparseGlobalMsg{
		Round:        g.Round,
		Participants: g.Participants,
		MaskHash:     meta.maskHash,
		MaskGen:      meta.maskGen,
		Dim:          len(s.cfg.Init),
		Enc:          c.Enc(),
		Values:       g.Payload,
	})
}

// commitJump implements roundSink: a relay adopting the root's state
// after its own upstream catch-up commits a round discontinuity. The
// snapshot replaces the committed log outright, and every attached
// downstream session receives the snapshot frame itself, which clients
// and nested relays apply through the same catch-up machinery.
// Commit-before-broadcast still holds: the jumped state reaches the
// checkpoint store before any session can observe it.
func (s *Server) commitJump(g *GlobalMsg, snap *wire.SnapshotMsg) error {
	frame := wire.Encode(snap)
	s.mu.Lock()
	s.ledger.jump(g, snap)
	s.round = g.Round + 1
	s.mu.Unlock()
	s.log.Info("history jumped to upstream snapshot", "round", g.Round)
	if err := s.rotate(g.Round + 1); err != nil {
		return err
	}
	s.fanOut(0, g.Round, frame)
	return nil
}
