package transport

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"time"

	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// RelayConfig parameterizes one edge relay: a full aggregation server on
// its downward face (client sessions, sanitization, durability) that,
// instead of reducing locally, exports each round's exact fixed-point
// partial sum and streams it to the root coordinator.
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
	// Codec is the cluster's payload codec, spoken with the relay's clients.
	// The root must announce the same codec: the relay refuses its Welcome
	// otherwise, so a sparse-q16 relay only ever frames commits the root
	// already rounded through binary16. The upstream leg itself is always
	// full-dimension — partial sums are exact integer columns (width-packed
	// on the wire), and the root's globals are dense.
	Codec wire.Codec
	// CheckpointDir/SnapshotEvery make the relay's downward face durable,
	// exactly as on ServerConfig.
	CheckpointDir string
	SnapshotEvery int
	// HistoryRounds/Shadow configure the downward face's bounded replay
	// history and catch-up follower, exactly as on ServerConfig. A
	// relay that falls off the ROOT's history catches up through the same
	// protocol (always snapshot mode — the relay leg carries no manager
	// state of its own) and propagates the adopted snapshot downstream.
	HistoryRounds int
	Shadow        *core.Config
	// Validator enables inbound sanitization at this edge. This is where
	// per-client defenses live in a hierarchy: the root only ever sees
	// pre-aggregated sums.
	Validator *ValidatorConfig
	// MaxRetries bounds consecutive failed upstream attempts, as on
	// ClientConfig; the backoff between them is 50ms doubling to 2s,
	// jittered.
	MaxRetries int
	// Dial, when non-nil, replaces the default upstream TCP dialer (10s
	// connect timeout) — the fault-injection hook.
	Dial DialFunc
	// Seed drives the backoff jitter stream.
	Seed int64
	// Metrics/Log instrument both faces plus the relay-specific handles
	// (apf_relay_*). Nil disables.
	Metrics *telemetry.Registry
	Log     *slog.Logger
}

// Relay is one edge pre-aggregator. Its downward face is a full *Server
// driving the shared round engine; its reduceRound hook replaces the local
// reduction with an upstream partial-sum exchange, so admission, review,
// WAL, and broadcast semantics are identical to the flat coordinator's.
// Upward it is a client of the root: the same uplink RunClient drives.
type Relay struct {
	cfg RelayConfig
	ln  net.Listener
	srv *Server
	up  *uplink

	relayM relayMetrics
	log    *slog.Logger

	// Upstream session state, owned by the engine goroutine (reduceRound is
	// called synchronously per round). dim is the root's model dimension.
	// applied is the last round whose root aggregate this relay committed
	// (-1 none); the resume HaveRound. adopted holds the root-committed
	// rounds of the last welcome's replay, consumed in order as the local
	// round loop reaches them. partial is the round's exported sum and
	// inflight its encoded frame: both buffers are reused every round, the
	// frame is encoded once, and an idempotent re-send after a reconnect
	// (the root drops duplicates by slot) writes the same bytes again.
	dim      int
	applied  int
	adopted  []GlobalMsg
	partial  fl.Partial
	inflight []byte
	// pendingJump holds the root's aggregate adopted from its catch-up
	// conversation (this relay fell off the root's replay history), and
	// jumpSnap the snapshot frame it came from; the next reduceRound
	// commits them as a round discontinuity.
	pendingJump *GlobalMsg
	jumpSnap    *wire.SnapshotMsg
}

// NewRelay binds the downward listener. Call Run to serve; the upstream
// session and the downward server are built there, because the run's
// geometry (rounds, dimension, init model) arrives in the root's welcome.
// Everything else is checked here, before the relay dials the root.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	if cfg.NumClients <= 0 || cfg.Upstream == "" {
		return nil, fmt.Errorf("transport: invalid relay config clients=%d upstream=%q",
			cfg.NumClients, cfg.Upstream)
	}
	if cfg.SessionKey == "" {
		return nil, fmt.Errorf("transport: relay requires a session key (upstream resume)")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("transport: negative relay retry budget %d", cfg.MaxRetries)
	}
	down := cfg.downward()
	if err := down.check(); err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addr, err)
		}
	}
	r := &Relay{
		cfg:     cfg,
		ln:      ln,
		relayM:  newRelayMetrics(cfg.Metrics),
		log:     telemetry.With(cfg.Log, "component", "relay", "name", cfg.Name),
		applied: -1,
	}
	r.up = newUplink(&uplink{
		peer: "upstream", addr: cfg.Upstream, codec: cfg.Codec, dial: cfg.Dial, ioTimeout: cfg.IOTimeout,
		maxRetries: cfg.MaxRetries, jitter: jitterStream(cfg.Seed, 5_000_000, cfg.SessionKey, cfg.Name),
		failures: r.relayM.reconnects, wireM: newWireMetrics(cfg.Metrics), log: r.log,
	})
	return r, nil
}

// downward is the server config of the relay's downward face, short of
// the listener and the geometry the root's Welcome announces.
func (cfg *RelayConfig) downward() ServerConfig {
	return ServerConfig{
		NumClients:    cfg.NumClients,
		IOTimeout:     cfg.IOTimeout,
		RoundDeadline: cfg.RoundDeadline,
		MinClients:    cfg.MinClients,
		Codec:         cfg.Codec,
		CheckpointDir: cfg.CheckpointDir,
		SnapshotEvery: cfg.SnapshotEvery,
		Validator:     cfg.Validator,
		HistoryRounds: cfg.HistoryRounds,
		Shadow:        cfg.Shadow,
		Metrics:       cfg.Metrics,
		Log:           cfg.Log,
	}
}

// Addr returns the bound downward listen address (useful with ":0").
func (r *Relay) Addr() net.Addr { return r.ln.Addr() }

// Server exposes the downward face after Run has built it (nil before).
// Read its accounting only after Run returns.
func (r *Relay) Server() *Server { return r.srv }

// UpstreamBytes returns the total bytes exchanged with the root across
// every upstream connection the relay used. Read it after Run returns.
func (r *Relay) UpstreamBytes() (read, written int64) { return r.up.bytes() }

// Run joins the root, serves the relay's clients for the announced number
// of rounds, and returns the final global model. It honours ctx
// cancellation on both faces.
func (r *Relay) Run(ctx context.Context) ([]float64, error) {
	// The uplink's watcher tears the upstream connection down on
	// cancellation; the downward server has its own.
	defer r.up.watch(ctx)()

	// First upstream join always asks for the full history (HaveRound -1):
	// the relay's own checkpoint is only restored when the downward server
	// is built below, and replayed rounds it already holds are cheap to
	// drop. The retry loop covers a root that is still coming up.
	var welcome *WelcomeMsg
	err := r.up.retry(ctx, &r.applied, func() (err error) {
		_, welcome, err = r.join(ctx)
		return err
	})
	if err != nil {
		closeQuietly(r.ln)
		return nil, err
	}

	// The downward engine hands each closed round to reduceRound instead of
	// reducing locally.
	down := r.cfg.downward()
	down.Listener, down.Rounds, down.Init = r.ln, welcome.Rounds, welcome.Init
	srv, err := newServer(down, r)
	if err != nil {
		return nil, err
	}
	r.srv = srv

	// A recovered downward checkpoint already holds a prefix of the root's
	// history; the engine resumes after it, and the first reduceRound skips
	// whatever the initial join adopted before that point.
	r.applied = srv.StartRound() - 1
	if srv.Recovered() {
		r.log.Info("relay resumed from checkpoint", "start_round", srv.StartRound())
	}
	return srv.Run(ctx)
}

// reduceRound implements roundReducer: export the closed round's exact
// partial sum, stream it to the root, and return the root's aggregate —
// which the downward server then commits and broadcasts exactly as a flat
// coordinator commits its local reduction (or, with the snapshot it came
// from, as a jump).
func (r *Relay) reduceRound(ctx context.Context, round int, agg *fl.Aggregator, meta roundMeta) (*GlobalMsg, *wire.SnapshotMsg, error) {
	count, ok := agg.ExportPartial(&r.partial)
	if !ok {
		return nil, nil, protocolErrorf("round %d: no open round to export", round)
	}
	r.relayM.sessions.Set(float64(r.srv.Sessions()))
	g, snap := r.resolved(round, count)
	if g == nil {
		r.inflight = wire.Append(r.inflight[:0],
			&PartialUpdateMsg{Round: round, MaskHash: meta.maskHash, Sum: r.partial})
		start := time.Now()
		err := r.up.retry(ctx, &r.applied, func() (err error) {
			g, snap, err = r.exchange(ctx, round, count)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		r.relayM.partials.Inc()
		r.relayM.partialSavedBytes.Add(int64(16*r.partial.Dim() - wire.PartialSectionLen(r.inflight)))
		r.relayM.upstreamSeconds.Observe(time.Since(start).Seconds())
	}
	r.applied = g.Round // g.Round == round, unless the relay jumped ahead
	return g, snap, nil
}

// resolved returns the root's aggregate for round when the relay already
// holds it — a snapshot jump at or past the round (with the snapshot), or
// a round the root committed while the relay was away — and nil when the
// round must be exchanged. A resolved round drops the local partial: those
// client updates missed the root's round, the documented cost of a relay
// away mid-round, and the root's aggregate is re-committed verbatim so the
// downward trajectory stays identical to the root's.
func (r *Relay) resolved(round, count int) (*GlobalMsg, *wire.SnapshotMsg) {
	if g := r.pendingJump; g != nil {
		// A pending jump is due at the first round reduced after the join
		// that adopted it, unless a recovered checkpoint already covers it.
		// Past the round it is a discontinuity, which the engine commits
		// via commitJump.
		r.pendingJump = nil
		if g.Round >= round {
			r.log.Info("jumping to root snapshot", "from_round", round, "round", g.Round, "dropped_clients", count)
			return g, r.jumpSnap
		}
	}
	for len(r.adopted) > 0 && r.adopted[0].Round < round {
		r.adopted = r.adopted[1:] // already committed, or jumped past
	}
	if len(r.adopted) > 0 && r.adopted[0].Round == round {
		r.log.Info("adopted root-committed round", "round", round, "dropped_clients", count)
		return &r.adopted[0], nil
	}
	return nil, nil
}

// exchange runs one upstream attempt: rejoin when the connection is gone
// (the resume may already resolve the round), push the in-flight partial,
// and read the round's global.
func (r *Relay) exchange(ctx context.Context, round, count int) (*GlobalMsg, *wire.SnapshotMsg, error) {
	conn := r.up.current()
	if conn == nil {
		var err error
		if conn, _, err = r.join(ctx); err != nil {
			return nil, nil, err
		}
		if g, snap := r.resolved(round, count); g != nil {
			return g, snap, nil
		}
	}
	markRound(conn, round)
	if err := writeFrame(conn, r.up.ioTimeout, r.inflight, &r.up.wireM, wire.KindPartialUpdate); err != nil {
		return nil, nil, fmt.Errorf("push partial: %w", err)
	}
	m, err := readMsg(conn, r.up.ioTimeout, modelPayloadLimit(r.dim), &r.up.wireM)
	if err != nil {
		return nil, nil, fmt.Errorf("pull aggregate: %w", err)
	}
	g, ok := m.(*GlobalMsg)
	if !ok {
		return nil, nil, protocolErrorf("round %d: expected a global frame upstream, got %s", round, m.WireKind())
	}
	return g, nil, checkGlobal(g, round, r.dim, false)
}

// join dials the root and joins (or resumes) the relay session. Rounds
// the root committed while the relay was away arrive as the welcome's
// replay and are adopted; a relay that fell off the root's history runs
// the catch-up conversation instead (always snapshot mode — the relay leg
// carries no manager state) and holds the snapshot as a pending jump.
func (r *Relay) join(ctx context.Context) (*countingConn, *WelcomeMsg, error) {
	join := &RelayJoinMsg{
		Name:       r.cfg.Name,
		SessionKey: r.cfg.SessionKey,
		HaveRound:  r.applied,
		Clients:    r.cfg.NumClients,
	}
	// The first welcome fixes the upstream geometry.
	conn, w, err := r.up.connect(ctx, join, func(w *WelcomeMsg) error {
		if err := checkWelcome(w); err != nil {
			return err
		}
		r.dim = w.Dim
		r.log.Info("joined root", "relay", w.ClientID, "rounds", w.Rounds, "dim", w.Dim)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	r.adopted = w.Missed
	if w.CatchUp {
		snap, _, err := r.up.catchUp(conn, w, r.applied, r.dim, nil)
		var model []float64
		if err == nil {
			_, model, err = checkSnapshot(snap, r.applied, r.dim, nil)
		}
		if err != nil {
			return nil, nil, err
		}
		r.pendingJump, r.jumpSnap = &GlobalMsg{Round: snap.Round, Payload: model}, snap
		r.log.Info("adopted root snapshot", "round", snap.Round, "applied", r.applied)
	}
	return conn, w, nil
}
