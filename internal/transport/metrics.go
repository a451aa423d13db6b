package transport

import (
	"errors"
	"io"

	"apf/internal/telemetry"
	"apf/internal/wire"
)

// This file owns the transport's metric handles. Each struct is built
// once at setup from an optional telemetry.Registry; with a nil registry
// the constructors return nil and every record below is a nil-safe no-op,
// so the uninstrumented paths pay one branch. Metric names follow
// Prometheus conventions: apf_ prefix, _total counters, _seconds
// histograms, base units.

// Directions for the wire tables.
const (
	dirIn  = 0
	dirOut = 1
)

// wireKinds is the number of entries in the per-kind tables (kinds are
// 1-based, index 0 unused).
const wireKinds = int(wire.KindDelta) + 1

// wireMetrics counts frames and bytes crossing the socket per message
// kind and direction, plus decode failures by type.
type wireMetrics struct {
	frames [2][wireKinds]*telemetry.Counter
	bytes  [2][wireKinds]*telemetry.Counter

	errCorrupt     *telemetry.Counter
	errVersion     *telemetry.Counter
	errUnknownKind *telemetry.Counter
	errTooLarge    *telemetry.Counter
}

func newWireMetrics(reg *telemetry.Registry) *wireMetrics {
	if reg == nil {
		return nil
	}
	wm := &wireMetrics{}
	const (
		framesHelp = "Wire frames exchanged, by message kind and direction."
		bytesHelp  = "Wire bytes exchanged (full frames), by message kind and direction."
		errsHelp   = "Inbound frames refused by the wire decoder, by failure type."
	)
	for d, dir := range [2]string{"in", "out"} {
		for k := wire.KindJoin; k <= wire.KindDelta; k++ {
			wm.frames[d][k] = reg.Counter("apf_wire_frames_total", framesHelp,
				"kind", k.String(), "dir", dir)
			wm.bytes[d][k] = reg.Counter("apf_wire_bytes_total", bytesHelp,
				"kind", k.String(), "dir", dir)
		}
	}
	wm.errCorrupt = reg.Counter("apf_wire_errors_total", errsHelp, "type", "corrupt")
	wm.errVersion = reg.Counter("apf_wire_errors_total", errsHelp, "type", "version")
	wm.errUnknownKind = reg.Counter("apf_wire_errors_total", errsHelp, "type", "unknown_kind")
	wm.errTooLarge = reg.Counter("apf_wire_errors_total", errsHelp, "type", "too_large")
	return wm
}

// recordFrame accounts one complete frame of n bytes.
func (wm *wireMetrics) recordFrame(dir int, kind wire.Kind, n int) {
	if wm == nil || kind < wire.KindJoin || int(kind) >= wireKinds {
		return
	}
	wm.frames[dir][kind].Inc()
	wm.bytes[dir][kind].Add(int64(n))
}

// recordReadErr classifies a decode failure; I/O errors (timeouts,
// closed connections) are connection-layer events, not wire errors, and
// are deliberately not counted here.
func (wm *wireMetrics) recordReadErr(err error) {
	if wm == nil {
		return
	}
	switch {
	case errors.Is(err, wire.ErrVersion):
		wm.errVersion.Inc()
	case errors.Is(err, wire.ErrUnknownKind):
		wm.errUnknownKind.Inc()
	case errors.Is(err, wire.ErrTooLarge):
		wm.errTooLarge.Inc()
	case errors.Is(err, wire.ErrCorrupt):
		wm.errCorrupt.Inc()
	}
}

// meteredReader counts the bytes a wire.ReadMsg call actually consumed,
// so inbound byte accounting covers the exact frame (header, payload,
// trailer) regardless of concurrent writers on the same connection.
type meteredReader struct {
	r io.Reader
	n int
}

func (m *meteredReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	m.n += n
	return n, err
}

// serverMetrics are the aggregation server's connection- and
// durability-layer handles (the round engine has its own set).
type serverMetrics struct {
	round           *telemetry.Gauge
	committedRounds *telemetry.Gauge
	roundsTotal     *telemetry.Counter
	partialRounds   *telemetry.Counter

	resumes         *telemetry.Counter
	replayedGlobals *telemetry.Counter
	writerDetaches  *telemetry.Counter
	queueFrames     *telemetry.Gauge
	connsTotal      *telemetry.Counter
	connsActive     *telemetry.Gauge

	recoveries     *telemetry.Counter
	recoveredRound *telemetry.Gauge

	quarantined   *telemetry.Gauge
	rejNonFinite  *telemetry.Counter
	rejDim        *telemetry.Counter
	rejNorm       *telemetry.Counter
	rejCosine     *telemetry.Counter
	rejQuarantine *telemetry.Counter
	rejOther      *telemetry.Counter

	// codecSessions counts negotiated sessions per payload codec (resumes
	// renegotiate and count again); sparseSavedBytes accumulates the wire
	// bytes sparse broadcast frames saved against the same round's dense
	// frame, counted as frames are queued.
	codecSessions    [int(wire.CodecSparseQ16) + 1]*telemetry.Counter
	sparseSavedBytes *telemetry.Counter

	// Resume-path accounting: how reconnecting clients were brought
	// current (replay from retained history, sketch-reconciled delta, or
	// full snapshot), what each catch-up cost, and how the bounded
	// history behaves under eviction.
	resumeReplay   *telemetry.Counter
	resumeSketch   *telemetry.Counter
	resumeSnapshot *telemetry.Counter
	catchupBytes   *telemetry.Histogram
	catchupSeconds *telemetry.Histogram
	evictedRounds  *telemetry.Counter
	historyLen     *telemetry.Gauge
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	const rejHelp = "Updates refused by sanitization/aggregation guards, by reason."
	m := &serverMetrics{
		round: reg.Gauge("apf_round",
			"Round the server is currently collecting."),
		committedRounds: reg.Gauge("apf_committed_rounds",
			"Rounds durably committed (aggregate history length)."),
		roundsTotal: reg.Counter("apf_rounds_committed_total",
			"Rounds committed by this process (recovered history not included)."),
		partialRounds: reg.Counter("apf_partial_rounds_total",
			"Rounds aggregated with fewer than the full cluster."),
		resumes: reg.Counter("apf_sessions_resumed_total",
			"Session re-attachments by reconnecting clients."),
		replayedGlobals: reg.Counter("apf_replayed_globals_total",
			"Missed aggregates replayed to resuming clients."),
		writerDetaches: reg.Counter("apf_writer_detaches_total",
			"Connections detached by the server (write failures, stalled outbound queues)."),
		queueFrames: reg.Gauge("apf_writer_queue_frames",
			"Outbound frames currently queued across all session writers."),
		connsTotal: reg.Counter("apf_connections_total",
			"Client connections accepted."),
		connsActive: reg.Gauge("apf_connections_active",
			"Client connections currently open."),
		recoveries: reg.Counter("apf_recoveries_total",
			"Server starts that restored an existing checkpoint."),
		recoveredRound: reg.Gauge("apf_recovered_round",
			"First round collected after the last recovery."),
		quarantined: reg.Gauge("apf_quarantined_clients",
			"Clients currently quarantined by the validator."),
		rejNonFinite:  reg.Counter("apf_update_rejections_total", rejHelp, "reason", "non_finite"),
		rejDim:        reg.Counter("apf_update_rejections_total", rejHelp, "reason", "dim_mismatch"),
		rejNorm:       reg.Counter("apf_update_rejections_total", rejHelp, "reason", "norm_outlier"),
		rejCosine:     reg.Counter("apf_update_rejections_total", rejHelp, "reason", "direction_outlier"),
		rejQuarantine: reg.Counter("apf_update_rejections_total", rejHelp, "reason", "quarantined"),
		rejOther:      reg.Counter("apf_update_rejections_total", rejHelp, "reason", "other"),
		sparseSavedBytes: reg.Counter("apf_sparse_bytes_saved_total",
			"Wire bytes sparse broadcast frames saved against the same round's dense frame."),
	}
	const modeHelp = "Resuming sessions brought current, by catch-up mode."
	m.resumeReplay = reg.Counter("apf_resume_mode_total", modeHelp, "mode", "replay")
	m.resumeSketch = reg.Counter("apf_resume_mode_total", modeHelp, "mode", "sketch")
	m.resumeSnapshot = reg.Counter("apf_resume_mode_total", modeHelp, "mode", "snapshot")
	m.catchupBytes = reg.Histogram("apf_catchup_bytes",
		"Wire bytes spent bringing one resuming session current (sketch and snapshot modes).", nil)
	m.catchupSeconds = reg.Histogram("apf_catchup_seconds",
		"Duration of one catch-up exchange (sketch and snapshot modes).", nil)
	m.evictedRounds = reg.Counter("apf_history_evicted_rounds_total",
		"Aggregate-history rounds dropped by the retention cap.")
	m.historyLen = reg.Gauge("apf_history_rounds",
		"Aggregate-history rounds currently retained for replay.")
	for c := wire.CodecDense; c <= wire.CodecSparseQ16; c++ {
		m.codecSessions[c] = reg.Counter("apf_codec_sessions_total",
			"Sessions negotiated, by payload codec.", "codec", c.String())
	}
	return m
}

// recordRejection classifies one refused update by its typed cause.
func (m *serverMetrics) recordRejection(err error) {
	if m == nil {
		return
	}
	switch {
	case errors.Is(err, ErrQuarantined):
		m.rejQuarantine.Inc()
	case errors.Is(err, ErrNormOutlier):
		m.rejNorm.Inc()
	case errors.Is(err, ErrDirectionOutlier):
		m.rejCosine.Inc()
	case errors.Is(err, ErrNonFiniteUpdate):
		m.rejNonFinite.Inc()
	case errors.Is(err, ErrDimMismatch):
		m.rejDim.Inc()
	default:
		m.rejOther.Inc()
	}
}

// engineMetrics instruments the round state machine: update
// classification and per-phase timings. The update counters satisfy, at
// quiescence, accepted + rejected + stale == received (mid-round a
// scrape may observe received ahead by the updates still being
// classified).
type engineMetrics struct {
	received *telemetry.Counter
	accepted *telemetry.Counter
	rejected *telemetry.Counter
	stale    *telemetry.Counter

	roundSeconds   *telemetry.Histogram
	collectSeconds *telemetry.Histogram
	reduceSeconds  *telemetry.Histogram
	commitSeconds  *telemetry.Histogram

	// cosine distributes the similarity of every checked update against
	// the reference direction (recorded whether or not the update passed);
	// trimmedFraction tracks the share of contributions the trimmed
	// reduction dropped per coordinate in the last committed round;
	// reviewStrikes counts post-round norm-review violations.
	cosine          *telemetry.Histogram
	trimmedFraction *telemetry.Gauge
	reviewStrikes   *telemetry.Counter
}

func newEngineMetrics(reg *telemetry.Registry) *engineMetrics {
	if reg == nil {
		return nil
	}
	const (
		updHelp   = "Updates received from clients, by classification."
		phaseHelp = "Duration of one round phase, by phase."
	)
	return &engineMetrics{
		received: reg.Counter("apf_updates_received_total",
			"Updates received from clients, before classification."),
		accepted: reg.Counter("apf_updates_total", updHelp, "result", "accepted"),
		rejected: reg.Counter("apf_updates_total", updHelp, "result", "rejected"),
		stale:    reg.Counter("apf_updates_total", updHelp, "result", "stale"),
		roundSeconds: reg.Histogram("apf_round_seconds",
			"Duration of one full round (collect through commit).", nil),
		collectSeconds: reg.Histogram("apf_round_phase_seconds", phaseHelp, nil,
			"phase", "collect"),
		reduceSeconds: reg.Histogram("apf_round_phase_seconds", phaseHelp, nil,
			"phase", "reduce"),
		commitSeconds: reg.Histogram("apf_round_phase_seconds", phaseHelp, nil,
			"phase", "commit"),
		cosine: reg.Histogram("apf_update_cosine",
			"Cosine similarity of checked updates against the decayed reference direction.",
			[]float64{-1, -0.75, -0.5, -0.25, 0, 0.25, 0.5, 0.75, 0.9}),
		trimmedFraction: reg.Gauge("apf_trimmed_fraction",
			"Fraction of contributions dropped per coordinate by the trimmed reduction in the last committed round."),
		reviewStrikes: reg.Counter("apf_review_strikes_total",
			"Strikes charged by the post-round norm review."),
	}
}

// relayMetrics are the edge relay's upstream-face handles. The relay's
// downward face (the client-terminating server it embeds) carries the full
// serverMetrics/engineMetrics set on the same registry; these cover only
// what is new at the relay: partials shipped, the upstream round trip, and
// the session gauge operators watch to see how load spreads across relays.
type relayMetrics struct {
	partials          *telemetry.Counter
	partialSavedBytes *telemetry.Counter
	upstreamSeconds   *telemetry.Histogram
	sessions          *telemetry.Gauge
	reconnects        *telemetry.Counter
}

func newRelayMetrics(reg *telemetry.Registry) *relayMetrics {
	if reg == nil {
		return nil
	}
	return &relayMetrics{
		partials: reg.Counter("apf_relay_partials_total",
			"Partial sums shipped to the root coordinator."),
		partialSavedBytes: reg.Counter("apf_relay_partial_bytes_saved_total",
			"Upstream bytes width-packing saved against raw 16-byte sums, over the shipped partials."),
		upstreamSeconds: reg.Histogram("apf_relay_upstream_seconds",
			"Upstream round trip: partial pushed until the root's aggregate arrives.", nil),
		sessions: reg.Gauge("apf_relay_sessions",
			"Client sessions this relay terminates."),
		reconnects: reg.Counter("apf_relay_upstream_reconnects_total",
			"Upstream session re-attachments after connection failures."),
	}
}

// clientMetrics are the trainer client's handles.
type clientMetrics struct {
	round      *telemetry.Gauge
	rounds     *telemetry.Counter
	reconnects *telemetry.Counter
	replayed   *telemetry.Counter

	trainSeconds *telemetry.Histogram
	roundSeconds *telemetry.Histogram

	upBytes   *telemetry.Counter
	downBytes *telemetry.Counter

	// Catch-up completions by mode, counted when a reconnect was brought
	// current without replay (history evicted server-side).
	catchupSketch   *telemetry.Counter
	catchupSnapshot *telemetry.Counter
}

func newClientMetrics(reg *telemetry.Registry) *clientMetrics {
	if reg == nil {
		return nil
	}
	const payloadHelp = "Manager-reported payload bytes (the scheme's accounting model), by direction."
	return &clientMetrics{
		round: reg.Gauge("apf_client_round",
			"Last round whose aggregate this client applied."),
		rounds: reg.Counter("apf_client_rounds_total",
			"Aggregates applied by this client (resume replays included)."),
		reconnects: reg.Counter("apf_client_reconnects_total",
			"Successful session resumptions."),
		replayed: reg.Counter("apf_client_replayed_globals_total",
			"Missed aggregates replayed after reconnects."),
		trainSeconds: reg.Histogram("apf_client_train_seconds",
			"Duration of one round's local training phase.", nil),
		roundSeconds: reg.Histogram("apf_client_round_seconds",
			"Duration of one full client round (train, push, pull, apply).", nil),
		upBytes:   reg.Counter("apf_client_payload_bytes_total", payloadHelp, "dir", "up"),
		downBytes: reg.Counter("apf_client_payload_bytes_total", payloadHelp, "dir", "down"),
		catchupSketch: reg.Counter("apf_client_catchup_total",
			"Catch-up exchanges completed, by mode.", "mode", "sketch"),
		catchupSnapshot: reg.Counter("apf_client_catchup_total",
			"Catch-up exchanges completed, by mode.", "mode", "snapshot"),
	}
}
