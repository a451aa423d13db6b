package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// RelayConfig parameterizes one edge relay: a full aggregation server on
// its downward face (client sessions, codec negotiation, sanitization,
// durability) that, instead of reducing locally, exports each round's
// exact fixed-point partial sum and streams it to the root coordinator.
type RelayConfig struct {
	// Addr is the downward listen address for client sessions.
	Addr string
	// Listener, when non-nil, is used instead of binding Addr.
	Listener net.Listener
	// Upstream is the root coordinator's address.
	Upstream string
	// Name labels this relay in root-side errors and logs.
	Name string
	// SessionKey identifies the relay's resumable session on the root.
	// Required: a relay that cannot resume would strand its clients on
	// every upstream hiccup.
	SessionKey string
	// NumClients is the number of client sessions this relay terminates.
	NumClients int
	// IOTimeout bounds each message exchange on both faces (default 30s).
	// Upstream it must exceed the root's full round time — the root answers
	// a partial only when every relay reported or its deadline fired.
	IOTimeout time.Duration
	// RoundDeadline/MinClients configure the downward face's fault
	// tolerance, exactly as on ServerConfig.
	RoundDeadline time.Duration
	MinClients    int
	// Codec is the strongest payload codec negotiated with clients. The
	// upstream leg is always full-dimension — partial sums are exact
	// integer columns (width-packed on the wire), not payloads. With
	// CodecSparseQ16 here, configure the root
	// with the same codec so its commits are binary16-representable and
	// the relay's quantized downward framing stays lossless.
	Codec wire.Codec
	// CheckpointDir/SnapshotEvery make the relay's downward face durable,
	// exactly as on ServerConfig.
	CheckpointDir string
	SnapshotEvery int
	// HistoryRounds/Shadow configure the downward face's bounded replay
	// history and catch-up shadow replica, exactly as on ServerConfig. A
	// relay that falls off the ROOT's history catches up through the same
	// protocol (always snapshot mode — the relay leg carries no manager
	// state of its own) and propagates the adopted snapshot downstream.
	HistoryRounds int
	Shadow        *core.Config
	// Validator enables inbound sanitization at this edge. This is where
	// per-client defenses live in a hierarchy: the root only ever sees
	// pre-aggregated sums.
	Validator *ValidatorConfig
	// DialTimeout bounds upstream connection setup (default 10s);
	// MaxRetries bounds consecutive upstream reconnect attempts, with
	// RetryBaseDelay/RetryMaxDelay shaping the jittered exponential
	// backoff (defaults 50ms / 2s), all as on ClientConfig.
	DialTimeout    time.Duration
	MaxRetries     int
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Dial, when non-nil, replaces the default upstream TCP dialer (the
	// fault-injection hook).
	Dial DialFunc
	// Seed drives the backoff jitter stream.
	Seed int64
	// Metrics/Log instrument both faces plus the relay-specific handles
	// (apf_relay_*). Nil disables.
	Metrics *telemetry.Registry
	Log     *telemetry.Logger
}

// Relay is one edge pre-aggregator. Its downward face is a full *Server
// driving the shared round engine; its reduceRound hook replaces the local
// reduction with an upstream partial-sum exchange, so admission, review,
// WAL, and broadcast semantics are identical to the flat coordinator's.
type Relay struct {
	cfg RelayConfig
	ln  net.Listener
	srv *Server

	relayM *relayMetrics
	wireM  *wireMetrics
	log    *telemetry.Logger
	jitter *rand.Rand

	// Upstream session state. All of it is owned by the engine goroutine
	// (reduceRound is called synchronously per round); only conn needs the
	// mutex, for the cancellation watcher.
	connMu  sync.Mutex
	conn    *countingConn
	relayID int
	rounds  int
	dim     int
	// applied is the last round whose root aggregate this relay committed
	// (-1 none); the resume HaveRound. adopted holds root-committed rounds
	// received through welcome replays, consumed as the local round loop
	// reaches them. partial is the round's exported sum and inflight its
	// encoded frame: both buffers are reused every round, the frame is
	// encoded once, and an idempotent re-send after a reconnect (the root
	// drops duplicates by slot) writes the same bytes again.
	applied  int
	adopted  map[int]*GlobalMsg
	partial  fl.Partial
	inflight []byte
	// pendingJump holds a snapshot adopted from the root's catch-up
	// conversation (this relay fell off the root's replay history); the
	// next reduceRound commits it as a round discontinuity.
	pendingJump *wire.SnapshotMsg

	upRead    int64
	upWritten int64
}

// NewRelay binds the downward listener. Call Run to serve; the upstream
// session and the downward server are built there, because the run's
// geometry (rounds, dimension, init model) arrives in the root's welcome.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.NumClients <= 0 || cfg.Upstream == "" {
		return nil, fmt.Errorf("transport: invalid relay config clients=%d upstream=%q",
			cfg.NumClients, cfg.Upstream)
	}
	if cfg.SessionKey == "" {
		return nil, fmt.Errorf("transport: relay requires a session key (upstream resume)")
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = defaultIOTimeout
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 50 * time.Millisecond
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = 2 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(network, addr string) (net.Conn, error) {
			return net.DialTimeout(network, addr, cfg.DialTimeout)
		}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addr, err)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(cfg.SessionKey + "/" + cfg.Name))
	return &Relay{
		cfg:     cfg,
		ln:      ln,
		relayM:  newRelayMetrics(cfg.Metrics),
		wireM:   newWireMetrics(cfg.Metrics),
		log:     cfg.Log.With("component", "relay", "name", cfg.Name),
		jitter:  stats.SplitRNG(cfg.Seed, 5_000_000+int64(h.Sum64()%1_000_000)),
		applied: -1,
		adopted: make(map[int]*GlobalMsg),
	}, nil
}

// Addr returns the bound downward listen address (useful with ":0").
func (r *Relay) Addr() net.Addr { return r.ln.Addr() }

// Server exposes the downward face after Run has built it (nil before).
// Read its accounting only after Run returns.
func (r *Relay) Server() *Server { return r.srv }

// UpstreamBytes returns the total bytes exchanged with the root across
// every upstream connection the relay used. Read it after Run returns.
func (r *Relay) UpstreamBytes() (read, written int64) {
	r.connMu.Lock()
	defer r.connMu.Unlock()
	return r.upRead, r.upWritten
}

// Run joins the root, serves the relay's clients for the announced number
// of rounds, and returns the final global model. It honours ctx
// cancellation on both faces.
func (r *Relay) Run(ctx context.Context) ([]float64, error) {
	// Tear the upstream connection down on cancellation to unblock I/O;
	// the downward server has its own watcher.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			r.dropConn()
		case <-stop:
		}
	}()
	defer r.dropConn()

	// First upstream join always asks for the full history (HaveRound -1):
	// the relay's own checkpoint is only restored when the downward server
	// is built below, and replayed rounds it already holds are cheap to
	// drop. The retry loop covers a root that is still coming up.
	welcome, err := r.withUpstream(ctx, func(conn *countingConn) error { return nil })
	if err != nil {
		closeQuietly(r.ln)
		return nil, err
	}

	srv, err := NewServer(ServerConfig{
		Listener:      r.ln,
		NumClients:    r.cfg.NumClients,
		Rounds:        welcome.Rounds,
		Init:          welcome.Init,
		IOTimeout:     r.cfg.IOTimeout,
		RoundDeadline: r.cfg.RoundDeadline,
		MinClients:    r.cfg.MinClients,
		Codec:         r.cfg.Codec,
		CheckpointDir: r.cfg.CheckpointDir,
		SnapshotEvery: r.cfg.SnapshotEvery,
		Validator:     r.cfg.Validator,
		HistoryRounds: r.cfg.HistoryRounds,
		Shadow:        r.cfg.Shadow,
		Metrics:       r.cfg.Metrics,
		Log:           r.cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	r.srv = srv
	// The downward engine streams contributions into the exact accumulator
	// and hands each closed round to reduceRound instead of reducing
	// locally. Set before Run starts the engine; never touched after.
	srv.reducer = r
	srv.streaming = true

	// A recovered downward checkpoint already holds a prefix of the root's
	// history; the engine resumes after it, so adopted rounds before that
	// point will never be asked for.
	r.applied = srv.StartRound() - 1
	for round := range r.adopted {
		if round <= r.applied {
			delete(r.adopted, round)
		}
	}
	if r.pendingJump != nil && r.pendingJump.Round <= r.applied {
		// The recovered downward checkpoint already covers the snapshot the
		// initial join's catch-up produced.
		r.pendingJump = nil
	}
	if srv.Recovered() {
		r.log.Info("relay resumed from checkpoint", "start_round", srv.StartRound())
	}
	return srv.Run(ctx)
}

// reduceRound implements roundReducer: export the closed round's exact
// partial sum, stream it to the root, and return the root's aggregate —
// which the downward server then commits and broadcasts exactly as a flat
// coordinator commits its local reduction.
func (r *Relay) reduceRound(ctx context.Context, round int, agg *fl.Aggregator, meta roundMeta) (*GlobalMsg, error) {
	count, ok := agg.ExportPartial(&r.partial)
	if !ok {
		return nil, protocolErrorf("round %d: no open round to export", round)
	}
	if r.partial.Poisoned() {
		// Overflowing the 128-bit accumulator takes ~2^63 unit-weight
		// clients of unit-scale updates; if it happens, the round's sum is
		// gone and no re-collection can restore it.
		return nil, fmt.Errorf("transport: round %d: %w", round, fl.ErrAccumOverflow)
	}
	if r.relayM != nil {
		r.relayM.sessions.Set(float64(r.srv.Sessions()))
	}
	if g, ok := r.adopted[round]; ok {
		// The root committed this round before we collected it (relay
		// restart, or a late join into a running root): the local partial
		// is dropped — those client updates missed the root's round, the
		// documented cost of a relay dying mid-round — and the canonical
		// aggregate is re-committed verbatim so the downward trajectory
		// stays identical to the root's.
		delete(r.adopted, round)
		r.applied = round
		r.log.Info("adopted root-committed round", "round", round, "dropped_clients", count)
		return g, nil
	}
	r.inflight = wire.Append(r.inflight[:0],
		&PartialUpdateMsg{Round: round, MaskHash: meta.maskHash, Sum: r.partial})
	start := time.Now()
	g, err := r.exchange(ctx, round)
	if err != nil {
		return nil, err
	}
	if r.relayM != nil {
		r.relayM.partials.Inc()
		r.relayM.partialSavedBytes.Add(int64(16*r.partial.Dim() - wire.PartialSectionLen(r.inflight)))
		r.relayM.upstreamSeconds.Observe(time.Since(start).Seconds())
	}
	r.applied = g.Round // g.Round == round, unless the exchange jumped ahead
	if g.Round > round {
		for rr := range r.adopted {
			if rr <= g.Round {
				delete(r.adopted, rr)
			}
		}
	}
	return g, nil
}

// exchange pushes the in-flight partial and waits for the round's
// aggregate, reconnecting with jittered exponential backoff on connection
// failures. Protocol violations and mask divergence are fatal, exactly as
// on the client.
func (r *Relay) exchange(ctx context.Context, round int) (*GlobalMsg, error) {
	attempts := 0
	for {
		g, err := r.tryExchange(ctx, round)
		if err == nil {
			return g, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, errProtocol) || errors.Is(err, ErrMaskDivergence) ||
			errors.Is(err, ErrFutureGeneration) {
			return nil, err
		}
		attempts++
		if r.relayM != nil {
			r.relayM.reconnects.Inc()
		}
		if attempts > r.cfg.MaxRetries {
			return nil, fmt.Errorf("transport: upstream connection failed (after %d reconnect attempt(s)): %w",
				attempts-1, err)
		}
		r.log.Warn("upstream connection lost, retrying", "round", round, "attempt", attempts, "err", err)
		if err := sleepBackoff(ctx, r.jitter, r.cfg.RetryBaseDelay, r.cfg.RetryMaxDelay, attempts); err != nil {
			return nil, err
		}
	}
}

// tryExchange runs one upstream attempt: ensure a joined connection (whose
// welcome replay may already resolve the round), push the partial, and
// read the round's global.
func (r *Relay) tryExchange(ctx context.Context, round int) (*GlobalMsg, error) {
	conn, err := r.joinedConn(ctx)
	if err != nil {
		return nil, err
	}
	if snap := r.pendingJump; snap != nil {
		r.pendingJump = nil
		if snap.Round >= round {
			// The join's catch-up adopted the root's snapshot: stage it on the
			// downward server and return it as a round discontinuity, which the
			// engine commits via commitJump. This round's local partial is
			// dropped — the root committed past it without this relay.
			r.srv.stageJump(snap)
			r.log.Info("jumping to root snapshot", "from_round", round, "round", snap.Round)
			return &GlobalMsg{Round: snap.Round, Payload: snap.Payload}, nil
		}
	}
	if g, ok := r.adopted[round]; ok {
		// The resume replay covered this round: the root committed it
		// without our partial while we were disconnected.
		delete(r.adopted, round)
		return g, nil
	}
	markRound(conn, round)
	if err := writeFrame(conn, r.cfg.IOTimeout, r.inflight, r.wireM, wire.KindPartialUpdate); err != nil {
		r.dropConn()
		return nil, fmt.Errorf("push partial: %w", err)
	}
	m, err := readMsg(conn, r.cfg.IOTimeout, modelPayloadLimit(r.dim), r.wireM)
	if err != nil {
		r.dropConn()
		return nil, fmt.Errorf("pull aggregate: %w", err)
	}
	g, ok := m.(*GlobalMsg)
	if !ok {
		return nil, protocolErrorf("round %d: expected a global frame upstream, got %s", round, m.WireKind())
	}
	if g.Round != round {
		return nil, protocolErrorf("upstream sent round %d during round %d", g.Round, round)
	}
	return g, nil
}

// joinedConn returns the live upstream connection, dialing and joining
// (with welcome validation and missed-round adoption) when there is none.
func (r *Relay) joinedConn(ctx context.Context) (*countingConn, error) {
	r.connMu.Lock()
	conn := r.conn
	r.connMu.Unlock()
	if conn != nil {
		return conn, nil
	}
	_, err := r.withUpstream(ctx, nil)
	if err != nil {
		return nil, err
	}
	r.connMu.Lock()
	conn = r.conn
	r.connMu.Unlock()
	if conn == nil {
		return nil, fmt.Errorf("transport: upstream connection closed during join")
	}
	return conn, nil
}

// withUpstream dials the root, joins (or resumes) the relay session, and
// leaves the validated connection installed as r.conn. The initial call in
// Run retries with backoff until the root answers or the budget is spent;
// later callers (joinedConn) do a single attempt — their retry loop is
// exchange's.
func (r *Relay) withUpstream(ctx context.Context, once func(*countingConn) error) (*WelcomeMsg, error) {
	attempts := 0
	for {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		w, err := r.joinOnce(ctx)
		if err == nil {
			if once != nil {
				if err := once(r.conn); err != nil {
					return nil, err
				}
			}
			return w, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, errProtocol) || errors.Is(err, ErrMaskDivergence) ||
			errors.Is(err, ErrFutureGeneration) {
			return nil, err
		}
		if once == nil {
			return nil, err // single attempt for joinedConn
		}
		attempts++
		if attempts > r.cfg.MaxRetries {
			return nil, fmt.Errorf("transport: upstream join failed (after %d attempt(s)): %w", attempts, err)
		}
		r.log.Warn("upstream join failed, retrying", "attempt", attempts, "err", err)
		if err := sleepBackoff(ctx, r.jitter, r.cfg.RetryBaseDelay, r.cfg.RetryMaxDelay, attempts); err != nil {
			return nil, err
		}
	}
}

// joinOnce performs one dial + join + welcome exchange and adopts the
// replayed history.
func (r *Relay) joinOnce(ctx context.Context) (*WelcomeMsg, error) {
	raw, err := r.cfg.Dial("tcp", r.cfg.Upstream)
	if err != nil {
		return nil, fmt.Errorf("transport: dial upstream %s: %w", r.cfg.Upstream, err)
	}
	conn := &countingConn{Conn: raw}
	r.connMu.Lock()
	r.conn = conn
	r.connMu.Unlock()
	if ctx.Err() != nil {
		r.dropConn()
		return nil, ctx.Err()
	}
	join := &RelayJoinMsg{
		Name:       r.cfg.Name,
		SessionKey: r.cfg.SessionKey,
		HaveRound:  r.applied,
		Clients:    r.cfg.NumClients,
	}
	if err := writeMsg(conn, r.cfg.IOTimeout, join, r.wireM); err != nil {
		r.dropConn()
		return nil, fmt.Errorf("transport: relay join: %w", err)
	}
	m, err := readMsg(conn, r.cfg.IOTimeout, wire.MaxPayload, r.wireM)
	if err != nil {
		r.dropConn()
		return nil, fmt.Errorf("transport: relay welcome: %w", err)
	}
	w, ok := m.(*WelcomeMsg)
	if !ok {
		r.dropConn()
		return nil, protocolErrorf("expected a welcome frame upstream, got %s", m.WireKind())
	}
	if err := r.acceptWelcome(w); err != nil {
		r.dropConn()
		return nil, err
	}
	if w.CatchUp {
		if err := r.catchUpUpstream(conn); err != nil {
			r.dropConn()
			return nil, err
		}
	}
	return w, nil
}

// catchUpUpstream runs the relay side of the catch-up
// conversation: the relay always requests snapshot mode (MaskGen -1) —
// its upstream leg is model payloads, not manager state — and holds the
// received snapshot as a pending round jump for the engine to commit.
func (r *Relay) catchUpUpstream(conn *countingConn) error {
	offer := &wire.ResumeOfferMsg{Round: r.applied, MaskGen: -1}
	if err := writeMsg(conn, r.cfg.IOTimeout, offer, r.wireM); err != nil {
		return fmt.Errorf("transport: catch-up offer: %w", err)
	}
	m, err := readMsg(conn, r.cfg.IOTimeout, snapshotPayloadLimit(r.dim), r.wireM)
	if err != nil {
		return fmt.Errorf("transport: catch-up: %w", err)
	}
	snap, ok := m.(*wire.SnapshotMsg)
	if !ok {
		return protocolErrorf("expected a snapshot frame upstream, got %s", m.WireKind())
	}
	if len(snap.Payload) != r.dim {
		return protocolErrorf("snapshot payload length %d, model has %d", len(snap.Payload), r.dim)
	}
	if snap.Round <= r.applied {
		return protocolErrorf("snapshot for round %d at applied round %d", snap.Round, r.applied)
	}
	r.pendingJump = snap
	r.log.Info("adopted root snapshot", "round", snap.Round, "applied", r.applied)
	return nil
}

// acceptWelcome validates the root's welcome and adopts its missed-round
// replay. The first welcome fixes the geometry; reconnects must repeat it.
func (r *Relay) acceptWelcome(w *WelcomeMsg) error {
	if w.Codec != wire.CodecDense {
		return protocolErrorf("root negotiated codec %s on the relay leg (always dense)", w.Codec)
	}
	if r.dim != 0 {
		if w.ClientID != r.relayID || w.Rounds != r.rounds || w.Dim != r.dim {
			return protocolErrorf("resume welcome changed geometry: id %d→%d rounds %d→%d dim %d→%d",
				r.relayID, w.ClientID, r.rounds, w.Rounds, r.dim, w.Dim)
		}
	} else {
		if w.Dim <= 0 || len(w.Init) != w.Dim || w.Rounds <= 0 {
			return protocolErrorf("invalid relay welcome: rounds=%d dim=%d init=%d", w.Rounds, w.Dim, len(w.Init))
		}
		r.relayID, r.rounds, r.dim = w.ClientID, w.Rounds, w.Dim
		r.log.Info("joined root", "relay", w.ClientID, "rounds", w.Rounds, "dim", w.Dim)
	}
	for i := range w.Missed {
		g := &w.Missed[i]
		if g.Round > r.applied {
			r.adopted[g.Round] = g
		}
	}
	return nil
}

// dropConn closes the upstream connection (if any) and folds its byte
// counts into the relay totals. The fold stays under connMu because the
// cancellation watcher and the engine goroutine can both land here.
func (r *Relay) dropConn() {
	r.connMu.Lock()
	conn := r.conn
	r.conn = nil
	if conn != nil {
		read, written := conn.Counts()
		r.upRead += read
		r.upWritten += written
	}
	r.connMu.Unlock()
	if conn != nil {
		closeQuietly(conn)
	}
}
