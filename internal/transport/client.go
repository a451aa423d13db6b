package transport

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// compactLener is implemented by codec managers that can report the
// expected compact payload length for a round (core.Manager does), letting
// the client validate a download before expansion instead of panicking on a
// malformed stream. A negative return means unknown.
type compactLener interface {
	CompactLen(round int) int
}

// ClientConfig parameterizes one trainer client. RunClient refuses a
// negative duration or count; zero selects the documented default.
type ClientConfig struct {
	// Addr is the server address.
	Addr string
	// Name labels this client in server-side errors.
	Name string
	// SessionKey identifies this client's resumable session on the server.
	// Empty disables resume: a lost connection is fatal after retries.
	// Keys must be unique per client within a run.
	SessionKey string
	// Model/Optimizer/Manager build the same fl.Replica the simulator
	// trains; its model starts from the server's Welcome payload.
	Model     fl.ModelFactory
	Optimizer fl.OptimizerFactory
	Manager   fl.ManagerFactory
	// Data and Indices define the local shard.
	Data    *data.Dataset
	Indices []int
	// LocalIters and BatchSize configure the local phase per round.
	LocalIters int
	BatchSize  int
	// Seed drives the local RNG streams.
	Seed int64
	// IOTimeout bounds each message exchange (default 30s).
	IOTimeout time.Duration
	// MaxRetries bounds consecutive reconnection attempts after a
	// connection failure (0 = fail immediately).
	// The budget refills whenever a round is successfully applied.
	MaxRetries int
	// RetryBaseDelay/RetryMaxDelay shape the exponential backoff between
	// reconnection attempts (defaults 50ms / 2s); the actual delay is
	// jittered in [d/2, d) by a stream seeded from Seed and SessionKey.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Dial, when non-nil, replaces the default TCP dialer (10s connect
	// timeout) — the hook for fault-injecting wrappers (package chaos). It
	// must enforce its own connect timeout.
	Dial DialFunc
	// Codec is the cluster's payload codec (wire.CodecDense selects the
	// dense kinds). The client refuses, with a protocol error, any Welcome
	// announcing another. Sparse codecs require a manager implementing
	// fl.CompactCodec and fl.MaskReporter, itself or behind wrappers
	// (fl.As); without them the first Welcome is refused the same way.
	Codec wire.Codec
	// OnRound, when non-nil, is called after each round's aggregate is
	// applied (including resume replay), with the round number and the
	// client's current dense model; the scenario harness samples its
	// accuracy curve from it. The model slice is live client state;
	// callbacks must not retain or mutate it.
	OnRound func(round int, model []float64)
	// Metrics, when non-nil, receives runtime metrics (rounds, training
	// time, wire traffic, reconnects). Nil keeps the client metric-free.
	Metrics *telemetry.Registry
	// Log, when non-nil, receives structured events (connection attempts,
	// resumes, round application). Nil keeps the client silent.
	Log *slog.Logger
}

// ClientResult summarizes one client's run.
type ClientResult struct {
	ClientID int
	Rounds   int
	// UpBytes/DownBytes are the manager-reported payload bytes (the
	// scheme's accounting model).
	UpBytes   int64
	DownBytes int64
	// WireRead/WireWritten are the measured TCP bytes across every
	// connection the client used.
	WireRead    int64
	WireWritten int64
	// Reconnects counts successful session resumptions.
	Reconnects int
	// FinalModel is the client's final dense model vector.
	FinalModel []float64
}

// clientRun is the connection-spanning state of one RunClient call.
type clientRun struct {
	cfg ClientConfig
	res *ClientResult
	// joined, when non-nil, is called once the first Welcome is accepted
	// (launchClients' slot gate).
	joined func()

	// up is the connection to the server (with its I/O deadline and wire
	// metrics); metrics/log are instrumentation handles (no-ops unless
	// ClientConfig injected a registry or logger).
	up      *uplink
	metrics clientMetrics
	log     *slog.Logger

	// Training state, built on the first Welcome: the replica (model bound
	// to its flat vector, optimizer, batcher, manager) and the manager's
	// compact codec.
	rep      *fl.Replica
	codec    fl.CompactCodec
	hasCodec bool
	dim      int
	rounds   int
	// maskGenR reports the manager's mask generation (nil when the manager
	// has none — sparse updates then carry generation -1).
	maskGenR fl.MaskGenerationReporter

	// applied is the last round whose aggregate has been merged (-1 none);
	// inflight is the encoded frame of round inflightRound's prepared but
	// unacknowledged update (empty when none), re-sent verbatim after a
	// reconnect so local training runs exactly once per round. Its buffer
	// is reused every round.
	applied       int
	inflight      []byte
	inflightRound int

	// frames reads the round loop's downloads; a global's payload, dense
	// or sparse, streams into down, one vector that checkpoint.Refit sizes
	// to the round's payload length. An upload is framed from upload, or
	// sparseUpload on a sparse cluster. All are reused every round: each
	// is done with before the next (the upload is encoded at once, the
	// global applied).
	frames       wire.FrameReader
	down         []float64
	upload       UpdateMsg
	sparseUpload SparseUpdateMsg
}

// RunClient connects to the server, trains for the announced number of
// rounds, and returns its accounting. It honours ctx cancellation. With a
// SessionKey and MaxRetries > 0 it survives connection failures: it
// reconnects with exponential backoff plus jitter, replays any aggregates
// it missed, and re-sends the in-flight update.
func RunClient(ctx context.Context, cfg ClientConfig) (*ClientResult, error) {
	return runClient(ctx, cfg, nil)
}

// runClient is RunClient with a hook called once the first Welcome is
// accepted (nil: none).
func runClient(ctx context.Context, cfg ClientConfig, joined func()) (*ClientResult, error) {
	if cfg.LocalIters <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("transport: invalid client config iters=%d batch=%d", cfg.LocalIters, cfg.BatchSize)
	}
	if cfg.IOTimeout < 0 || cfg.MaxRetries < 0 || cfg.RetryBaseDelay < 0 || cfg.RetryMaxDelay < 0 {
		return nil, fmt.Errorf("transport: negative setting in client config io-timeout=%v retries=%d retry-base=%v retry-max=%v",
			cfg.IOTimeout, cfg.MaxRetries, cfg.RetryBaseDelay, cfg.RetryMaxDelay)
	}
	r := &clientRun{
		cfg:     cfg,
		res:     &ClientResult{ClientID: -1},
		joined:  joined,
		applied: -1,
		metrics: newClientMetrics(cfg.Metrics),
		log:     telemetry.With(cfg.Log, "component", "client", "name", cfg.Name),
	}
	r.frames.Alloc = func(n int) []float64 {
		r.down = checkpoint.Refit(r.down, n, max(n, r.dim))[:n]
		return r.down
	}
	r.up = newUplink(&uplink{
		peer: "server", addr: cfg.Addr, codec: cfg.Codec, dial: cfg.Dial, ioTimeout: cfg.IOTimeout,
		maxRetries: cfg.MaxRetries, retryBase: cfg.RetryBaseDelay, retryMax: cfg.RetryMaxDelay,
		jitter: jitterStream(cfg.Seed, 4_000_000, cfg.SessionKey, cfg.Name),
		wireM:  newWireMetrics(cfg.Metrics), log: r.log,
	})
	stop := r.up.watch(ctx)
	err := r.up.retry(ctx, &r.applied, func() error { return r.session(ctx) })
	stop()
	if err != nil {
		return nil, err
	}
	r.res.WireRead, r.res.WireWritten = r.up.bytes()
	r.res.FinalModel = append([]float64(nil), r.rep.X...)
	return r.res, nil
}

// session runs one connection lifetime: join (or resume), replay of
// missed aggregates, and the round loop. A nil return means the full run
// completed; any other error is retryable unless it is a protocol
// violation.
func (r *clientRun) session(ctx context.Context) error {
	join := &JoinMsg{
		Name:       r.cfg.Name,
		SessionKey: r.cfg.SessionKey,
		HaveRound:  r.applied,
	}
	conn, welcome, err := r.up.connect(ctx, join, r.acceptWelcome)
	if err != nil {
		return err
	}
	if welcome.Resumed {
		r.res.Reconnects++
		r.metrics.reconnects.Inc()
		r.log.Info("session resumed", "client", r.res.ClientID, "have_round", r.applied)
	}

	// The server evicted this client's round from its replay history: the
	// Welcome carries no Missed list and the connection enters the
	// catch-up conversation instead (sketch reconciliation when both sides
	// track word generations, snapshot otherwise). Either way the client
	// lands bit-identical to the replayed trajectory.
	if welcome.CatchUp {
		snap, words, err := r.up.catchUp(conn, welcome, r.applied, r.dim, r.rep.Manager)
		if err != nil {
			return err
		}
		if err := r.applySnapshot(snap, words); err != nil {
			return err
		}
	}

	// Replay the aggregates this client missed while disconnected; the
	// manager state is a deterministic function of the synchronized
	// trajectory, so replay rebuilds model and freezing mask exactly.
	if len(welcome.Missed) > 0 {
		r.metrics.replayed.Add(int64(len(welcome.Missed)))
		r.log.Info("replaying missed aggregates",
			"from", r.applied+1, "count", len(welcome.Missed))
	}
	for i := range welcome.Missed {
		if err := r.applyGlobal(&welcome.Missed[i]); err != nil {
			return err
		}
	}

	for round := r.applied + 1; round < r.rounds; round++ {
		markRound(conn, round)
		roundStart := time.Now()
		if len(r.inflight) == 0 || r.inflightRound != round {
			r.rep.Train(round, r.cfg.LocalIters, round*r.cfg.LocalIters)
			r.metrics.trainSeconds.Observe(time.Since(roundStart).Seconds())
			contrib, weight, up := r.rep.Manager.PrepareUpload(round, r.rep.X)
			payload := contrib
			if r.hasCodec {
				payload = r.codec.CompactUpload(round, contrib)
			}
			r.prepare(round, payload, weight)
			r.res.UpBytes += up
			r.metrics.upBytes.Add(up)
		}
		if err := writeFrame(conn, r.up.ioTimeout, r.inflight, &r.up.wireM, wire.FrameKind(r.inflight)); err != nil {
			return fmt.Errorf("transport: round %d push: %w", round, err)
		}
		// The limit admits a snapshot frame: a server that adopted its own
		// upstream's snapshot (relay catch-up) broadcasts it mid-stream in
		// place of the jumped rounds' globals.
		m, err := readFrom(&r.frames, conn, r.up.ioTimeout, snapshotPayloadLimit(r.dim), &r.up.wireM)
		if err != nil {
			return fmt.Errorf("transport: round %d pull: %w", round, err)
		}
		if sm, ok := m.(*wire.SnapshotMsg); ok {
			if err := r.applySnapshot(sm, nil); err != nil {
				return err
			}
			round = r.applied // the loop increment resumes at applied+1
			r.metrics.roundSeconds.Observe(time.Since(roundStart).Seconds())
			continue
		}
		g, err := r.acceptGlobal(m, round)
		if err != nil {
			return err
		}
		if err := r.applyGlobal(&g); err != nil {
			return err
		}
		r.inflight = r.inflight[:0]
		r.metrics.roundSeconds.Observe(time.Since(roundStart).Seconds())
	}
	return nil
}

// prepare encodes round's update into the in-flight frame in the
// cluster's codec: an UpdateMsg on a dense cluster, a SparseUpdateMsg on a
// sparse one. The compact payload is already the unfrozen sub-vector
// (fl.CompactCodec), so sparse framing adds only the mask metadata — and,
// under sparse-q16, halves the scalars to binary16. The payload is the
// manager's scratch and is encoded at once; a re-send after a reconnect
// writes the same bytes, which stay valid because every Welcome announces
// the same codec.
func (r *clientRun) prepare(round int, payload []float64, weight float64) {
	var hash uint64
	if mr, ok := fl.As[fl.MaskReporter](r.rep.Manager); ok {
		hash = HashMaskWords(mr.MaskWords())
	}
	if r.cfg.Codec < wire.CodecSparse {
		r.upload = UpdateMsg{Round: round, Payload: payload, Weight: weight, MaskHash: hash}
		r.inflight = wire.Append(r.inflight[:0], &r.upload)
		r.inflightRound = round
		return
	}
	gen := -1
	if r.maskGenR != nil {
		gen = r.maskGenR.MaskGeneration()
	}
	r.sparseUpload = SparseUpdateMsg{Round: round, Weight: weight, MaskHash: hash, MaskGen: gen, Dim: r.dim,
		Enc: r.cfg.Codec.Enc(), Values: payload}
	r.inflight = wire.Append(r.inflight[:0], &r.sparseUpload)
	r.inflightRound = round
}

// acceptGlobal validates one downloaded frame of the round and returns its
// dense-payload form. Dense globals are accepted in every codec (the
// server falls back to them when a round lacks mask-agreement evidence);
// sparse globals are only legal on a sparse cluster and must match the
// client's own mask state before they are expanded.
func (r *clientRun) acceptGlobal(m wire.Msg, round int) (GlobalMsg, error) {
	switch g := m.(type) {
	case *GlobalMsg:
		return *g, nil
	case *SparseGlobalMsg:
		if r.cfg.Codec < wire.CodecSparse {
			return GlobalMsg{}, protocolErrorf("round %d: sparse global on a %s cluster", round, r.cfg.Codec)
		}
		if g.Dim != r.dim {
			return GlobalMsg{}, protocolErrorf("round %d: sparse global dimension %d, model has %d",
				round, g.Dim, r.dim)
		}
		if mr, ok := fl.As[fl.MaskReporter](r.rep.Manager); ok {
			if local := HashMaskWords(mr.MaskWords()); g.MaskHash != local {
				return GlobalMsg{}, fmt.Errorf("%w: round %d: server mask hash %016x, local mask hash %016x",
					ErrMaskDivergence, round, g.MaskHash, local)
			}
		}
		if g.MaskGen >= 0 && r.maskGenR != nil && g.MaskGen != r.maskGenR.MaskGeneration() {
			return GlobalMsg{}, fmt.Errorf("%w: round %d: server mask generation %d, local generation %d",
				ErrMaskDivergence, round, g.MaskGen, r.maskGenR.MaskGeneration())
		}
		return GlobalMsg{Round: g.Round, Participants: g.Participants, Payload: g.Values}, nil
	}
	return GlobalMsg{}, protocolErrorf("round %d: expected a global frame, got %s", round, m.WireKind())
}

// acceptWelcome validates the first WelcomeMsg and builds the replica from
// it: the same fl.Replica the in-process engine trains, so a TCP deployment
// reproduces the simulator bit for bit.
func (r *clientRun) acceptWelcome(w *WelcomeMsg) error {
	if err := checkWelcome(w); err != nil {
		return err
	}
	rep, err := fl.NewReplica(w.ClientID, r.cfg.Seed, w.Init, r.cfg.Model, r.cfg.Optimizer, r.cfg.Manager,
		r.cfg.Data, r.cfg.Indices, r.cfg.BatchSize)
	if err != nil {
		return protocolErrorf("welcome: %v", err)
	}
	r.rep, r.dim, r.rounds = rep, w.Dim, w.Rounds
	r.codec, r.hasCodec = fl.As[fl.CompactCodec](rep.Manager)
	r.maskGenR, _ = fl.As[fl.MaskGenerationReporter](rep.Manager)
	if r.cfg.Codec >= wire.CodecSparse {
		// Sparse framing is positional against the freezing mask; without a
		// mask-reporting compact manager the client can neither produce nor
		// verify it. This is a configuration error, not a retryable fault.
		if _, hasMask := fl.As[fl.MaskReporter](rep.Manager); !r.hasCodec || !hasMask {
			return protocolErrorf("codec %s, but the manager reports no freezing mask", r.cfg.Codec)
		}
	}
	r.res.ClientID = w.ClientID
	r.res.Rounds = w.Rounds
	r.log.Info("joined cluster", "client", w.ClientID, "rounds", w.Rounds,
		"dim", w.Dim, "codec", w.Codec.String())
	if r.joined != nil {
		r.joined()
	}
	return nil
}

// applyGlobal validates one aggregate in the sequential download stream and
// merges it into the local model. Used identically for live downloads and
// resume replay.
func (r *clientRun) applyGlobal(g *GlobalMsg) error {
	if err := checkGlobal(g, r.applied+1, r.dim, r.hasCodec); err != nil {
		return err
	}
	dense := g.Payload
	if r.hasCodec {
		if cl, ok := fl.As[compactLener](r.rep.Manager); ok {
			if want := cl.CompactLen(g.Round); want >= 0 && len(g.Payload) != want {
				return protocolErrorf("round %d compact payload length %d, want %d", g.Round, len(g.Payload), want)
			}
		}
		dense = r.codec.ExpandDownload(g.Round, g.Payload)
	}
	down := r.rep.Manager.ApplyDownload(g.Round, r.rep.X, dense)
	r.res.DownBytes += down
	r.applied = g.Round
	r.metrics.rounds.Inc()
	r.metrics.round.Set(float64(g.Round))
	r.metrics.downBytes.Add(down)
	if r.cfg.OnRound != nil {
		r.cfg.OnRound(g.Round, r.rep.X)
	}
	return nil
}
