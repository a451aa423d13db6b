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

	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/quantize"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// DialFunc abstracts the client's dialer so tests and the -chaos flag can
// inject fault-wrapped connections.
type DialFunc func(network, addr string) (net.Conn, error)

// compactLener is implemented by codec managers that can report the
// expected compact payload length for a round (core.Manager does), letting
// the client validate a download before expansion instead of panicking on a
// malformed stream. A negative return means unknown.
type compactLener interface {
	CompactLen(round int) int
}

// ClientConfig parameterizes one trainer client.
type ClientConfig struct {
	// Addr is the server address.
	Addr string
	// Name labels this client in server-side errors.
	Name string
	// SessionKey identifies this client's resumable session on the server.
	// Empty disables resume: a lost connection is fatal after retries.
	// Keys must be unique per client within a run.
	SessionKey string
	// Model/Optimizer/Manager mirror the simulator factories; the model
	// is re-initialized from the server's Welcome payload.
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
	// DialTimeout and IOTimeout bound connection setup and each message
	// exchange (defaults 10s / 30s).
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// MaxRetries bounds consecutive reconnection attempts after a
	// connection failure (0 = fail immediately, the pre-resume behaviour).
	// The budget refills whenever a round is successfully applied.
	MaxRetries int
	// RetryBaseDelay/RetryMaxDelay shape the exponential backoff between
	// reconnection attempts (defaults 50ms / 2s); the actual delay is
	// jittered in [d/2, d) by a stream seeded from Seed and SessionKey.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Dial, when non-nil, replaces the default TCP dialer — the hook for
	// fault-injecting wrappers (package chaos). It must enforce its own
	// connect timeout.
	Dial DialFunc
	// Codec is the strongest payload codec this client offers
	// (wire.CodecDense requests the dense kinds). Its capability bits go
	// out in the Join; the server's Welcome answers with the negotiated
	// codec, never stronger than offered. Sparse codecs require a manager
	// implementing fl.CompactCodec and fl.MaskReporter — negotiation
	// completing sparse without them fails the run with a typed error.
	Codec wire.Codec
	// OnRound, when non-nil, is called after each round's aggregate is
	// applied (including resume replay), with the round number and the
	// client's current dense model. cmd/apf-client uses it to export
	// periodic manager checkpoints. The model slice is live client state;
	// callbacks must not retain or mutate it.
	OnRound func(round int, model []float64)
	// Metrics, when non-nil, receives runtime metrics (rounds, training
	// time, wire traffic, reconnects). Nil keeps the client metric-free.
	Metrics *telemetry.Registry
	// Log, when non-nil, receives structured events (connection attempts,
	// resumes, round application). Nil keeps the client silent.
	Log *telemetry.Logger
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

	// metrics/wireM/log are nil-safe instrumentation handles.
	metrics *clientMetrics
	wireM   *wireMetrics
	log     *telemetry.Logger

	// Training state, built on the first Welcome.
	net0     *nn.Network
	params   []*nn.Param
	optim    opt.Optimizer
	batcher  *data.Batcher
	manager  fl.SyncManager
	codec    fl.CompactCodec
	hasCodec bool
	dim      int
	rounds   int
	x        []float64
	// codecNeg is the payload codec the server negotiated for this session;
	// maskGenR reports the manager's mask generation (nil when the manager
	// has none — sparse updates then carry generation -1).
	codecNeg wire.Codec
	maskGenR fl.MaskGenerationReporter

	// applied is the last round whose aggregate has been merged (-1 none);
	// inflight is the prepared-but-unacknowledged UpdateMsg, re-sent
	// idempotently after a reconnect so local training runs exactly once
	// per round. inflightGen is the mask generation captured when inflight
	// was prepared (-1 unknown), stamped on its sparse framing.
	applied     int
	inflight    *UpdateMsg
	inflightGen int

	// Current connection, guarded for the cancellation watcher.
	connMu sync.Mutex
	conn   *countingConn
}

// RunClient connects to the server, trains for the announced number of
// rounds, and returns its accounting. It honours ctx cancellation. With a
// SessionKey and MaxRetries > 0 it survives connection failures: it
// reconnects with exponential backoff plus jitter, replays any aggregates
// it missed, and re-sends the in-flight update.
func RunClient(ctx context.Context, cfg ClientConfig) (*ClientResult, error) {
	if cfg.LocalIters <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("transport: invalid client config iters=%d batch=%d", cfg.LocalIters, cfg.BatchSize)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = defaultIOTimeout
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

	r := &clientRun{
		cfg:     cfg,
		res:     &ClientResult{ClientID: -1},
		applied: -1,
		metrics: newClientMetrics(cfg.Metrics),
		wireM:   newWireMetrics(cfg.Metrics),
		log:     cfg.Log.With("component", "client", "name", cfg.Name),
	}

	// Tear the live connection down on cancellation to unblock I/O.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			r.connMu.Lock()
			if r.conn != nil {
				closeQuietly(r.conn)
			}
			r.connMu.Unlock()
		case <-stop:
		}
	}()

	// Jitter stream: deterministic per (Seed, SessionKey), independent of
	// the training streams.
	h := fnv.New64a()
	h.Write([]byte(cfg.SessionKey + "/" + cfg.Name))
	jitter := stats.SplitRNG(cfg.Seed, 4_000_000+int64(h.Sum64()%1_000_000))

	attempts := 0
	for {
		before := r.applied
		err := r.session(ctx)
		if err == nil {
			r.res.FinalModel = append([]float64(nil), r.x...)
			return r.res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, errProtocol) || errors.Is(err, ErrMaskDivergence) ||
			errors.Is(err, ErrFutureGeneration) {
			return nil, err
		}
		if r.applied > before {
			attempts = 0 // progress made: refill the retry budget
		}
		attempts++
		if attempts > cfg.MaxRetries {
			return nil, fmt.Errorf("transport: connection failed (after %d reconnect attempt(s)): %w", attempts-1, err)
		}
		if err := sleepBackoff(ctx, jitter, cfg.RetryBaseDelay, cfg.RetryMaxDelay, attempts); err != nil {
			return nil, err
		}
	}
}

// sleepBackoff waits the jittered exponential backoff for the given attempt
// (1-based), honouring cancellation.
func sleepBackoff(ctx context.Context, rng *rand.Rand, base, max time.Duration, attempt int) error {
	d := base << (attempt - 1)
	if d <= 0 || d > max {
		d = max
	}
	jittered := d/2 + time.Duration(rng.Float64()*float64(d/2))
	select {
	case <-time.After(jittered):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// session runs one connection lifetime: dial, join (or resume), replay of
// missed aggregates, and the round loop. A nil return means the full run
// completed; any other error is retryable unless it is a protocol
// violation.
func (r *clientRun) session(ctx context.Context) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	raw, err := r.cfg.Dial("tcp", r.cfg.Addr)
	if err != nil {
		return fmt.Errorf("transport: dial %s: %w", r.cfg.Addr, err)
	}
	conn := &countingConn{Conn: raw}
	r.connMu.Lock()
	r.conn = conn
	r.connMu.Unlock()
	defer func() {
		r.connMu.Lock()
		r.conn = nil
		r.connMu.Unlock()
		read, written := conn.Counts()
		r.res.WireRead += read
		r.res.WireWritten += written
		closeQuietly(conn)
	}()
	if ctx.Err() != nil {
		return ctx.Err() // the watcher may have missed this connection
	}

	caps := r.cfg.Codec.Caps()
	if _, ok := r.manager.(reconManager); ok {
		// The manager tracks per-word generations, so a catch-up resume can
		// use sketch reconciliation. (Nil before the first Welcome builds the
		// manager — a fresh join has no state to reconcile anyway.)
		caps |= wire.CapRecon
	}
	join := &JoinMsg{
		Name:       r.cfg.Name,
		SessionKey: r.cfg.SessionKey,
		HaveRound:  r.applied,
		Caps:       caps,
	}
	if err := writeMsg(conn, r.cfg.IOTimeout, join, r.wireM); err != nil {
		return fmt.Errorf("transport: join: %w", err)
	}
	// The welcome carries the init model plus every missed aggregate, so
	// its bound is the format ceiling rather than the model geometry.
	m, err := readMsg(conn, r.cfg.IOTimeout, wire.MaxPayload, r.wireM)
	if err != nil {
		return fmt.Errorf("transport: welcome: %w", err)
	}
	welcome, ok := m.(*WelcomeMsg)
	if !ok {
		return protocolErrorf("expected a welcome frame, got %s", m.WireKind())
	}
	if err := r.acceptWelcome(welcome); err != nil {
		return err
	}

	// The server evicted this client's round from its replay history: the
	// Welcome carries no Missed list and the connection enters the
	// catch-up conversation instead (sketch reconciliation when both sides
	// track word generations, snapshot otherwise). Either way the client
	// lands bit-identical to the replayed trajectory.
	if welcome.CatchUp {
		if err := r.catchUp(conn, welcome); err != nil {
			return err
		}
	}

	// Replay the aggregates this client missed while disconnected; the
	// manager state is a deterministic function of the synchronized
	// trajectory, so replay rebuilds model and freezing mask exactly.
	if len(welcome.Missed) > 0 {
		if r.metrics != nil {
			r.metrics.replayed.Add(int64(len(welcome.Missed)))
		}
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
		var roundStart time.Time
		if r.metrics != nil {
			roundStart = time.Now()
		}
		if r.inflight == nil || r.inflight.Round != round {
			var trainStart time.Time
			if r.metrics != nil {
				trainStart = time.Now()
			}
			r.train(round)
			if r.metrics != nil {
				r.metrics.trainSeconds.Observe(time.Since(trainStart).Seconds())
			}
			contrib, weight, up := r.manager.PrepareUpload(round, r.x)
			payload := contrib
			if r.hasCodec {
				payload = r.codec.CompactUpload(round, contrib)
			}
			var hash uint64
			if mr, ok := r.manager.(fl.MaskReporter); ok {
				hash = HashMaskWords(mr.MaskWords())
			}
			// Copy out of the manager-owned scratch: the update must
			// survive re-sends across reconnects.
			r.inflight = &UpdateMsg{
				Round:    round,
				Payload:  append([]float64(nil), payload...),
				Weight:   weight,
				MaskHash: hash,
			}
			r.inflightGen = -1
			if r.maskGenR != nil {
				r.inflightGen = r.maskGenR.MaskGeneration()
			}
			if r.codecNeg == wire.CodecSparseQ16 {
				// Round the local copy through binary16 now, so the values
				// this client keeps equal the values the server decodes and
				// a reconnect re-send re-quantizes losslessly.
				quantize.RoundTripSlice(r.inflight.Payload)
			}
			r.res.UpBytes += up
			if r.metrics != nil {
				r.metrics.upBytes.Add(up)
			}
		}
		if err := r.push(conn); err != nil {
			return fmt.Errorf("transport: round %d push: %w", round, err)
		}
		// The limit admits a snapshot frame: a server that adopted its own
		// upstream's snapshot (relay catch-up) broadcasts it mid-stream in
		// place of the jumped rounds' globals.
		m, err := readMsg(conn, r.cfg.IOTimeout, snapshotPayloadLimit(r.dim), r.wireM)
		if err != nil {
			return fmt.Errorf("transport: round %d pull: %w", round, err)
		}
		if sm, ok := m.(*wire.SnapshotMsg); ok {
			if err := r.applySnapshot(sm); err != nil {
				return err
			}
			round = r.applied // the loop increment resumes at applied+1
			if r.metrics != nil {
				r.metrics.roundSeconds.Observe(time.Since(roundStart).Seconds())
			}
			continue
		}
		g, err := r.acceptGlobal(m, round)
		if err != nil {
			return err
		}
		if err := r.applyGlobal(g); err != nil {
			return err
		}
		r.inflight = nil
		if r.metrics != nil {
			r.metrics.roundSeconds.Observe(time.Since(roundStart).Seconds())
		}
	}
	return nil
}

// push writes the round's in-flight update on the session's negotiated
// codec: verbatim on dense sessions, wrapped into a SparseUpdateMsg on
// sparse ones. The compact payload is already the unfrozen sub-vector
// (fl.CompactCodec), so sparse framing adds only the mask metadata — and,
// under sparse-q16, halves the scalars to binary16 (lossless here, because
// the in-flight copy was rounded through binary16 when prepared).
func (r *clientRun) push(conn *countingConn) error {
	if r.codecNeg < wire.CodecSparse {
		return writeMsg(conn, r.cfg.IOTimeout, r.inflight, r.wireM)
	}
	sp := &SparseUpdateMsg{
		Round:    r.inflight.Round,
		Weight:   r.inflight.Weight,
		MaskHash: r.inflight.MaskHash,
		MaskGen:  r.inflightGen,
		Dim:      r.dim,
		Enc:      r.codecNeg.Enc(),
	}
	sp.Values, sp.Q = wire.PackSparse(sp.Enc, r.inflight.Payload)
	return writeMsg(conn, r.cfg.IOTimeout, sp, r.wireM)
}

// acceptGlobal validates one downloaded frame of the round and returns its
// dense-payload form. Dense globals are accepted on every session (the
// server falls back to them when a round lacks mask-agreement evidence);
// sparse globals are only legal on sparse sessions and must match the
// client's own mask state before they are expanded.
func (r *clientRun) acceptGlobal(m wire.Msg, round int) (*GlobalMsg, error) {
	switch g := m.(type) {
	case *GlobalMsg:
		return g, nil
	case *SparseGlobalMsg:
		if r.codecNeg < wire.CodecSparse {
			return nil, protocolErrorf("round %d: sparse global on a %s session", round, r.codecNeg)
		}
		if g.Dim != r.dim {
			return nil, protocolErrorf("round %d: sparse global dimension %d, model has %d",
				round, g.Dim, r.dim)
		}
		if mr, ok := r.manager.(fl.MaskReporter); ok {
			if local := HashMaskWords(mr.MaskWords()); g.MaskHash != local {
				return nil, fmt.Errorf("%w: round %d: server mask hash %016x, local mask hash %016x",
					ErrMaskDivergence, round, g.MaskHash, local)
			}
		}
		if g.MaskGen >= 0 && r.maskGenR != nil && g.MaskGen != r.maskGenR.MaskGeneration() {
			return nil, fmt.Errorf("%w: round %d: server mask generation %d, local generation %d",
				ErrMaskDivergence, round, g.MaskGen, r.maskGenR.MaskGeneration())
		}
		return &GlobalMsg{Round: g.Round, Participants: g.Participants, Payload: g.Floats(nil)}, nil
	}
	return nil, protocolErrorf("round %d: expected a global frame, got %s", round, m.WireKind())
}

// acceptWelcome validates a WelcomeMsg and, on the first connection, builds
// the training state (model, optimizer, batcher, manager) from it.
func (r *clientRun) acceptWelcome(w *WelcomeMsg) error {
	if w.Codec > r.cfg.Codec {
		return protocolErrorf("server negotiated codec %s, stronger than the offered %s",
			w.Codec, r.cfg.Codec)
	}
	if r.params != nil {
		// Reconnection: the geometry must not have changed.
		if w.ClientID != r.res.ClientID || w.Rounds != r.rounds || w.Dim != r.dim {
			return protocolErrorf("resume welcome changed geometry: id %d→%d rounds %d→%d dim %d→%d",
				r.res.ClientID, w.ClientID, r.rounds, w.Rounds, r.dim, w.Dim)
		}
		if !w.Resumed {
			return protocolErrorf("server restarted the session instead of resuming it")
		}
		if w.Codec != r.codecNeg {
			return protocolErrorf("resume welcome changed codec %s→%s", r.codecNeg, w.Codec)
		}
		r.res.Reconnects++
		if r.metrics != nil {
			r.metrics.reconnects.Inc()
		}
		r.log.Info("session resumed", "client", r.res.ClientID, "have_round", r.applied)
		return nil
	}

	// RNG stream ids match the in-process engine (fl.New) exactly, so a
	// TCP deployment reproduces the simulator's training bit for bit —
	// the equivalence test in this package depends on it.
	net0 := r.cfg.Model(stats.SplitRNG(r.cfg.Seed, int64(2_000_000+w.ClientID)))
	params := net0.Params()
	if err := checkWelcome(w, nn.ParamCount(params)); err != nil {
		return err
	}
	nn.SetFlat(params, w.Init)
	r.net0, r.params, r.dim, r.rounds = net0, params, w.Dim, w.Rounds
	r.optim = r.cfg.Optimizer(params)
	r.batcher = data.NewBatcher(r.cfg.Data, r.cfg.Indices, r.cfg.BatchSize,
		stats.SplitRNG(r.cfg.Seed, int64(3_000_000+w.ClientID)))
	r.manager = r.cfg.Manager(w.ClientID, w.Dim)
	r.codec, r.hasCodec = r.manager.(fl.CompactCodec)
	r.codecNeg = w.Codec
	r.maskGenR, _ = r.manager.(fl.MaskGenerationReporter)
	if r.codecNeg >= wire.CodecSparse {
		// Sparse framing is positional against the freezing mask; without a
		// mask-reporting compact manager the client can neither produce nor
		// verify it. This is a configuration error, not a retryable fault.
		if _, hasMask := r.manager.(fl.MaskReporter); !r.hasCodec || !hasMask {
			return protocolErrorf("codec %s negotiated, but the manager reports no freezing mask", r.codecNeg)
		}
	}
	r.x = make([]float64, w.Dim)
	r.res.ClientID = w.ClientID
	r.res.Rounds = w.Rounds
	if w.Resumed {
		r.res.Reconnects++
		if r.metrics != nil {
			r.metrics.reconnects.Inc()
		}
	}
	r.log.Info("joined cluster", "client", w.ClientID, "rounds", w.Rounds,
		"dim", w.Dim, "codec", w.Codec.String())
	return nil
}

// train runs one round's local iterations.
func (r *clientRun) train(round int) {
	for i := 0; i < r.cfg.LocalIters; i++ {
		xb, yb := r.batcher.Next()
		nn.ZeroGrads(r.params)
		r.net0.LossGrad(xb, yb)
		r.optim.Step()
		r.x = nn.FlattenParams(r.params, r.x)
		r.manager.PostIterate(round, r.x)
		nn.SetFlat(r.params, r.x)
	}
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
		if cl, ok := r.manager.(compactLener); ok {
			if want := cl.CompactLen(g.Round); want >= 0 && len(g.Payload) != want {
				return protocolErrorf("round %d compact payload length %d, want %d", g.Round, len(g.Payload), want)
			}
		}
		dense = r.codec.ExpandDownload(g.Round, g.Payload)
	}
	down := r.manager.ApplyDownload(g.Round, r.x, dense)
	r.res.DownBytes += down
	nn.SetFlat(r.params, r.x)
	r.applied = g.Round
	if r.metrics != nil {
		r.metrics.rounds.Inc()
		r.metrics.round.Set(float64(g.Round))
		r.metrics.downBytes.Add(down)
	}
	if r.cfg.OnRound != nil {
		r.cfg.OnRound(g.Round, r.x)
	}
	return nil
}
