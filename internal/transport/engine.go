package transport

import (
	"context"
	"errors"
	"fmt"
	"time"

	"apf/internal/fl"
	"apf/internal/quantize"
	"apf/internal/wire"
)

// event is a notification from the connection layer to the round engine:
// one decoded update (or relay partial), or one connection failure. It
// carries plain peer identity rather than connection state, so the engine
// never touches a socket.
type event struct {
	id   int
	name string
	upd  *UpdateMsg // nil for a connection failure or a relay partial
	// maskGen is the sender's mask generation when the update arrived on a
	// sparse codec (upd then holds its dense-equivalent conversion); -1 for
	// dense sessions, generation-less managers and relay partials (which
	// carry no generation yet). The engine cross-checks it across the
	// round's contributions.
	maskGen int
	// part is a relay's pre-aggregated partial sum (root tier only); the
	// slot id then identifies the relay, not a client.
	part *PartialUpdateMsg
	err  error
}

// roundMeta carries the mask agreement evidence of a committed round: the
// hash every participant attested (0 when the round's manager reports no
// mask) and the mask generation from the round's sparse updates (-1 when
// none carried one). The server needs both to frame sparse globals — a
// sparse broadcast is only sound when the round proved mask agreement.
type roundMeta struct {
	maskHash uint64
	maskGen  int
}

// roundSink is the narrow surface the round engine drives its host
// through. The TCP server implements it with WAL appends, snapshot
// rotation, and frame fan-out; engine tests implement it in-process. The
// engine guarantees the call order per round: markRound, then zero or more
// rejectUpdate, then exactly one commitRound (absent only when the round
// aborts the run).
type roundSink interface {
	// markRound announces that the engine starts collecting the round.
	markRound(round int)
	// rejectUpdate records one refused update (fault-tolerant mode only;
	// in strict mode a refused update aborts the run instead).
	rejectUpdate(id, round int, err error)
	// strikeClient records one post-round review violation: the update was
	// admitted and aggregated, but the round-relative norm review struck
	// the client after the fact (possibly quarantining it).
	strikeClient(id, round int, err error)
	// commitRound durably commits and distributes one aggregate; an error
	// aborts the run (durability failures are never survivable). meta is
	// the round's mask agreement evidence; partial marks a round that
	// aggregated fewer than the full cluster.
	commitRound(g *GlobalMsg, meta roundMeta, partial bool) error
	// commitJump commits a round discontinuity: the reducer returned an
	// aggregate for a round AHEAD of the one being collected, together with
	// the upstream snapshot it came from (a relay adopted the root's state
	// after falling off its replay history). The sink replaces its
	// committed log with the snapshot and propagates it downstream; the
	// engine then resumes collection after g.Round.
	commitJump(g *GlobalMsg, snap *wire.SnapshotMsg) error
}

// roundReducer turns one collected round into the aggregate to commit.
// nil selects the local reduction (fl.Aggregator.Reduce plus the optional
// binary16 commit rounding) — the flat coordinator and the hierarchy's
// root. A relay installs a reducer that exports the round's exact partial
// sum, streams it upstream, and returns the root's aggregate, so the same
// engine drives both faces of the hierarchy with identical admission,
// review, and commit semantics (collection streams: constant memory in
// client count). An aggregate past the collected round comes with the
// upstream snapshot it was adopted from.
type roundReducer interface {
	reduceRound(ctx context.Context, round int, agg *fl.Aggregator, meta roundMeta) (*GlobalMsg, *wire.SnapshotMsg, error)
}

// roundState is one round's compact admission record beside the
// aggregator, which itself records who contributed (fl.Aggregator.Received
// and Count change exactly when a contribution is admitted). No update is
// retained until round close — at relay scale (hundreds of thousands of
// clients per round) retained payloads would dominate memory — so every
// cross-update consistency check is either enforced by fl.Aggregator.Add
// (weights, lengths, finiteness) or checked incrementally by handle
// (mask-hash agreement).
type roundState struct {
	round int
	// resp marks slots that spoke this round at all — accepted OR
	// rejected. The deterministic-close rule needs it: a round with
	// quarantined peers only closes once every slot responded (or the
	// deadline fired), so commit timing never races a reconnecting
	// client's re-send. Stale and duplicate copies do not respond.
	resp      []bool
	respCount int
	// firstID is the slot of the round's first accepted contribution (-1
	// until one lands); its attested mask hash seeds meta.maskHash and
	// names the reference side of a divergence error.
	firstID int
	meta    roundMeta
}

// reset prepares the state for a new round.
func (st *roundState) reset(round, n int) {
	if cap(st.resp) < n {
		st.resp = make([]bool, n)
	}
	st.resp = st.resp[:n]
	for i := range st.resp {
		st.resp[i] = false
	}
	st.round, st.respCount, st.firstID = round, 0, -1
	st.meta = roundMeta{maskGen: -1}
}

// respond marks one slot as having spoken this round.
func (st *roundState) respond(id int) {
	if !st.resp[id] {
		st.resp[id] = true
		st.respCount++
	}
}

// roundEngine is the transport-agnostic round state machine: it owns
// collect/admit/deadline/partial-aggregate/commit and is fed through an
// event channel, so the same engine runs under the TCP server, under the
// relay tier (both faces), and under in-process tests without sockets.
type roundEngine struct {
	clients    int
	rounds     int
	deadline   time.Duration // 0 = strict barrier
	minClients int
	validator  *Validator // nil disables sanitization
	events     <-chan event
	sink       roundSink
	// reducer replaces the local reduction when non-nil (the relay face);
	// see roundReducer.
	reducer roundReducer
	// partialTier marks the root face of the hierarchy: slots are relays
	// and events carry PartialUpdateMsg instead of UpdateMsg. Implies
	// streaming collection (partial merge needs the exact accumulator).
	partialTier bool
	// quantizeCommit rounds every locally reduced aggregate through
	// binary16 (quantize.RoundTripSlice) before it is logged or
	// distributed. Set from the config when the cluster's codec is
	// sparse-q16: the committed value then equals what a q16 client
	// decodes from its sparse global, so the dense frames of rounds
	// without mask evidence, resume replay and WAL recovery stay
	// bit-identical to the quantized stream. A relay commits its root's
	// aggregates verbatim; a sparse-q16 root has already rounded them.
	quantizeCommit bool
	// trimFrac selects the aggregator's fold: 0 the weighted mean, else
	// the per-side fraction of the trimmed mean; see fl.SetTrimFraction.
	trimFrac float64
	// metrics instruments update classification and phase timings; the
	// zero value (in-process engine tests) records nothing.
	metrics engineMetrics
	// payloads takes back each update's vector once nothing holds it: at
	// once when the update is dropped or folded (streaming), after Reduce
	// or Discard when the aggregator kept it (held). nil hands nothing
	// back.
	payloads *payloadPool
	held     [][]float64

	// Per-round accepted (id, norm) pairs feeding the validator's
	// post-round norm review; reset when a round opens.
	acceptedIDs   []int
	acceptedNorms []float64
}

// faultTolerant reports whether partial aggregation is enabled.
func (e *roundEngine) faultTolerant() bool { return e.deadline > 0 }

// streaming reports whether the aggregator folds each contribution on
// arrival instead of keeping it until Reduce: on the relay face (its
// reducer exports the exact sum) and the root (partial merges).
func (e *roundEngine) streaming() bool { return e.reducer != nil || e.partialTier }

// discard drops the open round and hands back the vectors it held.
func (e *roundEngine) discard(agg *fl.Aggregator) {
	agg.Discard()
	e.release()
}

// release hands back every vector the closed round's aggregator held.
func (e *roundEngine) release() {
	for i, v := range e.held {
		e.payloads.put(v)
		e.held[i] = nil
	}
	e.held = e.held[:0]
}

// peer names the engine's contributors in error messages: clients on the
// flat/edge tier, relays on the root tier.
func (e *roundEngine) peer() string {
	if e.partialTier {
		return "relay"
	}
	return "client"
}

// run drives rounds startRound … rounds-1; every aggregate reaches the
// sink, which keeps the committed log.
func (e *roundEngine) run(ctx context.Context, startRound int) error {
	agg := fl.NewAggregator(0)
	defer agg.Close()
	agg.SetTrimFraction(e.trimFrac)
	agg.SetStreaming(e.streaming())

	n := e.clients
	st := &roundState{}
	for round := startRound; round < e.rounds; round++ {
		roundStart := time.Now()
		e.sink.markRound(round)

		st.reset(round, n)
		e.acceptedIDs = e.acceptedIDs[:0]
		e.acceptedNorms = e.acceptedNorms[:0]
		agg.Open(round, n)
		count, err := e.collect(ctx, st, agg)
		if err != nil {
			e.discard(agg)
			return err
		}
		reduceStart := time.Now()
		e.metrics.collectSeconds.Observe(reduceStart.Sub(roundStart).Seconds())
		// Post-round norm review: with every norm of the closed round on
		// the table, strike participants that towered over the round's
		// median — the round-relative comparison a rolling history cannot
		// make while model norms drift. Running it before the commit means
		// any quarantine it trips rides the same snapshot rotation.
		if e.validator != nil {
			for _, s := range e.validator.ReviewRound(round, e.acceptedIDs, e.acceptedNorms) {
				e.metrics.reviewStrikes.Inc()
				e.sink.strikeClient(s.ID, round, s.Err)
			}
		}
		// Participants counts underlying clients: the Adds of a flat/edge
		// round, the summed relay counts of a root round.
		participants := agg.ClientCount()

		var msg *GlobalMsg
		if e.reducer != nil {
			var snap *wire.SnapshotMsg
			msg, snap, err = e.reducer.reduceRound(ctx, round, agg, st.meta)
			if err != nil {
				e.discard(agg)
				return err
			}
			if msg.Round > round {
				// The reducer jumped ahead (upstream snapshot catch-up): this
				// round's collected contributions are void — the upstream tier
				// committed past them without this relay — and collection
				// resumes after the jumped round.
				e.discard(agg)
				if err := e.sink.commitJump(msg, snap); err != nil {
					return err
				}
				round = msg.Round // the loop increment lands on msg.Round+1
				continue
			}
		} else {
			dim := agg.Dim()
			if dim < 0 {
				// Streaming aggregation of all-empty payloads folds no
				// columns: the round's aggregate is legitimately empty.
				dim = 0
			}
			out := make([]float64, dim)
			_, ok := agg.Reduce(out)
			e.release()
			if !ok {
				return protocolErrorf("round %d: all contributions withheld (total weight 0)", round)
			}
			if k, m := agg.LastTrim(); m > 0 {
				e.metrics.trimmedFraction.Set(float64(2*k) / float64(m))
			}
			if e.quantizeCommit {
				quantize.RoundTripSlice(out)
			}
			msg = &GlobalMsg{Round: round, Payload: out, Participants: participants}
		}

		commitStart := time.Now()
		e.metrics.reduceSeconds.Observe(commitStart.Sub(reduceStart).Seconds())
		if err := e.sink.commitRound(msg, st.meta, count < n); err != nil {
			return err
		}
		end := time.Now()
		e.metrics.commitSeconds.Observe(end.Sub(commitStart).Seconds())
		e.metrics.roundSeconds.Observe(end.Sub(roundStart).Seconds())
	}
	return nil
}

// collect gathers round contributions into the aggregator (and their mask
// evidence into st) until every eligible peer reported or, in
// fault-tolerant mode, the round deadline passed with at least minClients
// contributions. Quarantined clients are not waited for. Every accepted
// contribution passes the sanitization hook (when configured) and the
// aggregator's own guards before it counts. Returns the contribution
// count; the round's mask evidence lands in st.meta.
func (e *roundEngine) collect(ctx context.Context, st *roundState, agg *fl.Aggregator) (int, error) {
	var deadline <-chan time.Time
	var timer *time.Timer
	if e.faultTolerant() {
		timer = time.NewTimer(e.deadline)
		defer timer.Stop()
		deadline = timer.C
	}
	round := st.round
	// expired records that the round deadline has already fired: from then
	// on the round closes as soon as the floor is met, whether the meeting
	// update arrived before the timer (checked in the select arm) or after
	// it (checked at the loop head). Without the loop-head check a round
	// that was below the floor at the deadline would silently revert to the
	// full barrier and wait out stragglers it was meant to release.
	expired := false
	for {
		// Quarantine can trip mid-round, so the target is re-derived each
		// iteration: a poisoned client must not hold the barrier hostage.
		needed := e.clients
		quarantined := 0
		if e.validator != nil {
			quarantined = e.validator.QuarantinedCount()
			needed -= quarantined
		}
		if needed <= 0 {
			return 0, fmt.Errorf("transport: round %d: every client is quarantined: %w", round, ErrQuarantined)
		}
		floor := e.minClients
		if floor > needed {
			floor = needed
		}
		count := agg.Count()
		if count >= needed {
			// With quarantined peers excluded from the target, "everyone
			// else accepted" is an instant that races the excluded peer's
			// own push (a reconnect re-send lands before or after it purely
			// by scheduling, wobbling replay bytes — the EXPERIMENTS.md
			// determinism caveat). Deterministic close: hold the round open
			// until every slot spoke this round (accepted or rejected) or
			// the deadline fires, which bounds a mute quarantined peer by
			// the same budget as any honest straggler.
			if quarantined == 0 || !e.faultTolerant() || expired || st.respCount >= e.clients {
				return count, nil
			}
		} else if expired && count >= floor {
			return count, nil
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-deadline:
			deadline = nil
			expired = true
			if count >= floor {
				return count, nil
			}
			// Below the aggregation floor: keep waiting for stragglers
			// or reconnecting clients; ctx bounds the overall run.
		case ev := <-e.events:
			if ev.err != nil {
				if e.faultTolerant() {
					continue // the connection layer already detached the peer
				}
				if ctx.Err() != nil {
					return 0, ctx.Err()
				}
				return 0, fmt.Errorf("transport: round %d recv from %s %d (%s): %w",
					round, e.peer(), ev.id, ev.name, ev.err)
			}
			if err := e.handle(ev, st, agg); err != nil {
				return 0, err
			}
		}
	}
}

// handle classifies and admits one contribution — a client update, or a
// relay's pre-aggregated partial sum on the root tier — in one order for
// both tiers: stale and duplicate copies are dropped, a future round is a
// protocol violation, the mask generation (when the contribution carries
// one) is the cheap first tripwire, refused contributions reject
// (fault-tolerant) or abort (strict), and an admitted one must attest the
// round's agreed mask hash — checked incrementally against the first
// accepted contribution, a fatal divergence in either mode. Every client
// folded into a relay's partial attested the hash its relay carries
// upstream, so the agreement check spans relays exactly as it spans
// clients. The tier decides only how admit folds.
func (e *roundEngine) handle(ev event, st *roundState, agg *fl.Aggregator) error {
	// An update's vector goes back as soon as it is handled, unless the
	// aggregator kept it (admitted into a round that reduces later).
	kept := false
	defer func() {
		if ev.upd != nil && !kept {
			e.payloads.put(ev.upd.Payload)
		}
	}()
	round := st.round
	var at int
	var hash uint64
	switch {
	case e.partialTier && ev.part != nil:
		at, hash = ev.part.Round, ev.part.MaskHash
	case !e.partialTier && ev.upd != nil:
		at, hash = ev.upd.Round, ev.upd.MaskHash
	default:
		return protocolErrorf("round %d: %s %d sent another tier's contribution", round, e.peer(), ev.id)
	}
	// received counts before classification; the accepted/rejected/stale
	// split below sums to it at quiescence.
	e.metrics.received.Inc()
	if at < round {
		e.metrics.stale.Inc()
		return nil // stale re-send of an already-aggregated round
	}
	if at > round {
		return protocolErrorf("%s %d sent round %d during round %d", e.peer(), ev.id, at, round)
	}
	st.respond(ev.id)
	if agg.Received(ev.id) {
		// An idempotent duplicate (reconnect re-send) is a stale copy of
		// an already-counted contribution.
		e.metrics.stale.Inc()
		return nil
	}
	// The mask hash proves the bitsets agree; the generation is the
	// cheaper first tripwire, and the one echoed to clients so they can
	// match a sparse global against their local mask history.
	if ev.maskGen >= 0 {
		if st.meta.maskGen >= 0 && ev.maskGen != st.meta.maskGen {
			return fmt.Errorf("%w: round %d: %s %d mask generation %d, round generation %d",
				ErrMaskDivergence, round, e.peer(), ev.id, ev.maskGen, st.meta.maskGen)
		}
		st.meta.maskGen = ev.maskGen
	}
	if err := e.admit(ev, round, agg); err != nil {
		if !e.faultTolerant() {
			// The strict barrier cannot complete without this peer, so a
			// poisoned contribution aborts the run.
			return fmt.Errorf("transport: round %d: %w", round, err)
		}
		e.metrics.rejected.Inc()
		e.sink.rejectUpdate(ev.id, round, err)
		return nil
	}
	if ev.upd != nil && !e.streaming() {
		e.held = append(e.held, ev.upd.Payload)
		kept = true
	}
	// Positional averaging of compact payloads is only sound when every
	// participant froze the same coordinates; disagreement is fatal in
	// both modes — a round that mixed masks must never commit.
	if st.firstID < 0 {
		st.firstID, st.meta.maskHash = ev.id, hash
	} else if hash != st.meta.maskHash {
		return fmt.Errorf("%w: round %d: %s %d mask hash %016x, %s %d mask hash %016x",
			ErrMaskDivergence, round, e.peer(), st.firstID, st.meta.maskHash, e.peer(), ev.id, hash)
	}
	e.metrics.accepted.Inc()
	return nil
}

// admit folds one contribution into the round. A relay partial is the
// exact merge, straight from the packed section of the frame it arrived in
// (fl.Aggregator.AddPartial validates dimensions, counts and weight
// sign). A client update is judged by the validator's statistics (when
// configured) — typed rejections, strikes, quarantine — and admitted by
// fl.Aggregator.Add, the one numeric rule of every tier: finiteness,
// weight, the exact fold's bound and cross-client payload-length
// agreement, with or without a validator in front.
func (e *roundEngine) admit(ev event, round int, agg *fl.Aggregator) error {
	if e.partialTier {
		return agg.AddPartial(ev.id, &ev.part.Sum)
	}
	id, u := ev.id, ev.upd
	var norm float64
	if e.validator != nil {
		var err error
		norm, err = e.validator.Check(id, round, u.Payload, u.Weight)
		if cos, ok := e.validator.LastCosine(); ok {
			e.metrics.cosine.Observe(cos)
		}
		if err != nil {
			return err
		}
	}
	if err := agg.Add(id, u.Payload, u.Weight); err != nil {
		if errors.Is(err, fl.ErrLengthMismatch) {
			// Cross-client geometry disagreement is a protocol violation
			// (misaligned compact payloads), not a sanitization matter.
			return protocolErrorf("%s %d: %v", e.peer(), id, err)
		}
		if e.validator != nil && (errors.Is(err, fl.ErrNonFinite) || errors.Is(err, fl.ErrAccumOverflow)) {
			// An update the exact fold cannot take costs its sender a
			// strike, so repeat offenders quarantine; either refusal
			// depends on the update alone.
			e.validator.strike(id, round, err)
		}
		return err
	}
	// The norm and direction enter the gate state only now, when every
	// guard has accepted the update; an aggregator rejection above must
	// not let a refused update skew the gates.
	if e.validator != nil {
		e.validator.Commit(norm, u.Payload)
		e.acceptedIDs = append(e.acceptedIDs, id)
		e.acceptedNorms = append(e.acceptedNorms, norm)
	}
	return nil
}
