package transport

import (
	"context"
	"errors"
	"fmt"
	"time"

	"apf/internal/fl"
	"apf/internal/quantize"
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
	// dense sessions and generation-less managers. The engine cross-checks
	// it across the round's updates.
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
	// aggregate for a round AHEAD of the one being collected (a relay
	// adopted the root's snapshot after falling off its replay history).
	// The sink replaces its retained history with the jumped state and
	// propagates the snapshot downstream; the engine then resumes
	// collection after g.Round.
	commitJump(g *GlobalMsg) error
}

// roundReducer turns one collected round into the aggregate to commit.
// nil selects the local reduction (fl.Aggregator.Reduce plus the optional
// binary16 commit rounding) — the flat coordinator and the hierarchy's
// root. A relay installs a reducer that exports the round's exact partial
// sum, streams it upstream, and returns the root's aggregate, so the same
// engine drives both faces of the hierarchy with identical admission,
// review, and commit semantics.
type roundReducer interface {
	reduceRound(ctx context.Context, round int, agg *fl.Aggregator, meta roundMeta) (*GlobalMsg, error)
}

// roundState is one round's compact admission record: who contributed and
// the round's mask agreement evidence. It replaces retaining every
// *UpdateMsg until round close — at relay scale (hundreds of thousands of
// clients per round) the retained payloads dominated memory, and every
// cross-update consistency check the old post-collect sweep made is either
// enforced by fl.Aggregator.Add (weights, lengths, finiteness) or checked
// incrementally here (mask-hash agreement, with the same error text).
type roundState struct {
	round int
	recs  []bool // got-a-contribution, by slot id
	count int
	// resp marks slots that spoke this round at all — accepted OR
	// rejected. The deterministic-close rule needs it: a round with
	// quarantined peers only closes once every slot responded (or the
	// deadline fired), so commit timing never races a reconnecting
	// client's re-send. Stale and duplicate copies do not respond.
	resp      []bool
	respCount int
	// firstID is the slot of the round's first accepted contribution (-1
	// until one lands); its attested mask hash seeds meta.maskHash and
	// names the reference side of a divergence error, exactly as the old
	// lowest-index sweep did for agreeing rounds.
	firstID int
	meta    roundMeta
}

// reset prepares the state for a new round.
func (st *roundState) reset(round, n int) {
	if cap(st.recs) < n {
		st.recs = make([]bool, n)
		st.resp = make([]bool, n)
	}
	st.recs = st.recs[:n]
	st.resp = st.resp[:n]
	for i := range st.recs {
		st.recs[i] = false
		st.resp[i] = false
	}
	st.round, st.count, st.firstID = round, 0, -1
	st.respCount = 0
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
	// streaming folds contributions into the exact fixed-point accumulator
	// as they arrive instead of retaining payload slices — constant memory
	// in client count, required for the relay tier. Incompatible with the
	// trimmed reduction, which needs every per-client value.
	streaming bool
	// partialTier marks the root face of the hierarchy: slots are relays
	// and events carry PartialUpdateMsg instead of UpdateMsg. Implies
	// streaming (partial merge needs the exact accumulator).
	partialTier bool
	// quantizeCommit rounds every committed aggregate through binary16
	// (quantize.RoundTripSlice) before it is logged or distributed. Set when
	// any session negotiated the sparse-q16 codec: the committed value then
	// equals what a q16 client decodes from its sparse global, so mixed
	// dense/q16 clusters and WAL replay stay bit-identical.
	quantizeCommit bool
	// reduction selects the aggregator's fold (mean or trimmed) with
	// trimFrac as the per-side trim fraction; see fl.SetReduction.
	reduction fl.Reduction
	trimFrac  float64
	// metrics instruments update classification and phase timings; nil
	// (the default for in-process engine tests) disables it entirely,
	// including the clock reads.
	metrics *engineMetrics

	// Per-round accepted (id, norm) pairs feeding the validator's
	// post-round norm review; reset when a round opens.
	acceptedIDs   []int
	acceptedNorms []float64
}

// faultTolerant reports whether partial aggregation is enabled.
func (e *roundEngine) faultTolerant() bool { return e.deadline > 0 }

// peer names the engine's contributors in error messages: clients on the
// flat/edge tier, relays on the root tier.
func (e *roundEngine) peer() string {
	if e.partialTier {
		return "relay"
	}
	return "client"
}

// run drives rounds startRound … rounds-1 and returns the final dense
// global model. history holds the aggregates of already-committed rounds
// (recovery); init is the round-0 model.
func (e *roundEngine) run(ctx context.Context, startRound int, init []float64, history []GlobalMsg) ([]float64, error) {
	agg := fl.NewAggregator(0)
	defer agg.Close()
	agg.SetReduction(e.reduction, e.trimFrac)
	if e.streaming || e.partialTier {
		agg.SetStreaming(true)
	}

	n := e.clients
	st := &roundState{}
	global := append([]float64(nil), init...)
	// After recovery the dense global resumes from the last full-length
	// aggregate (compact aggregates leave the dense copy informational,
	// exactly as in an uninterrupted run).
	for i := len(history) - 1; i >= 0; i-- {
		if len(history[i].Payload) == len(global) {
			global = append(global[:0], history[i].Payload...)
			break
		}
	}

	for round := startRound; round < e.rounds; round++ {
		var roundStart time.Time
		if e.metrics != nil {
			roundStart = time.Now()
		}
		e.sink.markRound(round)

		st.reset(round, n)
		e.acceptedIDs = e.acceptedIDs[:0]
		e.acceptedNorms = e.acceptedNorms[:0]
		agg.Open(round, n)
		count, err := e.collect(ctx, st, agg)
		if err != nil {
			agg.Discard()
			return nil, err
		}
		var reduceStart time.Time
		if e.metrics != nil {
			e.metrics.collectSeconds.Observe(time.Since(roundStart).Seconds())
			reduceStart = time.Now()
		}
		// Post-round norm review: with every norm of the closed round on
		// the table, strike participants that towered over the round's
		// median — the round-relative comparison a rolling history cannot
		// make while model norms drift. Running it before the commit means
		// any quarantine it trips rides the same snapshot rotation.
		if e.validator != nil {
			for _, s := range e.validator.ReviewRound(round, e.acceptedIDs, e.acceptedNorms) {
				if e.metrics != nil {
					e.metrics.reviewStrikes.Inc()
				}
				e.sink.strikeClient(s.ID, round, s.Err)
			}
		}
		// Participants counts underlying clients: the Adds of a flat/edge
		// round, the summed relay counts of a root round.
		participants := agg.ClientCount()

		var msg *GlobalMsg
		if e.reducer != nil {
			msg, err = e.reducer.reduceRound(ctx, round, agg, st.meta)
			if err != nil {
				agg.Discard()
				return nil, err
			}
			if msg.Round > round {
				// The reducer jumped ahead (upstream snapshot catch-up): this
				// round's collected contributions are void — the upstream tier
				// committed past them without this relay — and collection
				// resumes after the jumped round.
				agg.Discard()
				if err := e.sink.commitJump(msg); err != nil {
					return nil, err
				}
				if len(msg.Payload) == len(global) {
					global = append(global[:0], msg.Payload...)
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
			if _, ok := agg.Reduce(out); !ok {
				return nil, protocolErrorf("round %d: all contributions withheld (total weight 0)", round)
			}
			if e.metrics != nil {
				if k, m := agg.LastTrim(); m > 0 {
					e.metrics.trimmedFraction.Set(float64(2*k) / float64(m))
				}
			}
			if e.quantizeCommit {
				quantize.RoundTripSlice(out)
			}
			msg = &GlobalMsg{Round: round, Payload: out, Participants: participants}
		}

		var commitStart time.Time
		if e.metrics != nil {
			e.metrics.reduceSeconds.Observe(time.Since(reduceStart).Seconds())
			commitStart = time.Now()
		}
		if err := e.sink.commitRound(msg, st.meta, count < n); err != nil {
			return nil, err
		}
		if e.metrics != nil {
			e.metrics.commitSeconds.Observe(time.Since(commitStart).Seconds())
			e.metrics.roundSeconds.Observe(time.Since(roundStart).Seconds())
		}
		// A full-length aggregate is the new dense global; compact
		// (mask-elided) aggregates only update the transmitted positions
		// on the clients, so the engine's dense copy is informational.
		if len(msg.Payload) == len(global) {
			global = append(global[:0], msg.Payload...)
		}
	}
	return global, nil
}

// collect gathers round contributions into st (slot occupancy, mask
// evidence) and the aggregator until every eligible peer reported or, in
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
		needed := len(st.recs)
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
		if st.count >= needed {
			// With quarantined peers excluded from the target, "everyone
			// else accepted" is an instant that races the excluded peer's
			// own push (a reconnect re-send lands before or after it purely
			// by scheduling, wobbling replay bytes — the EXPERIMENTS.md
			// determinism caveat). Deterministic close: hold the round open
			// until every slot spoke this round (accepted or rejected) or
			// the deadline fires, which bounds a mute quarantined peer by
			// the same budget as any honest straggler.
			if quarantined == 0 || !e.faultTolerant() || expired || st.respCount >= len(st.recs) {
				return st.count, nil
			}
		} else if expired && st.count >= floor {
			return st.count, nil
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-deadline:
			deadline = nil
			expired = true
			if st.count >= floor {
				return st.count, nil
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
			var err error
			if e.partialTier {
				err = e.handlePartial(ev, st, agg)
			} else {
				err = e.handleUpdate(ev, st, agg)
			}
			if err != nil {
				return 0, err
			}
		}
	}
}

// handleUpdate classifies and admits one client update event: stale and
// duplicate copies are dropped, refused updates reject (fault-tolerant) or
// abort (strict), and an admitted update must attest the round's agreed
// mask hash — checked incrementally against the first accepted update, a
// fatal divergence in either mode exactly as the old post-collect sweep
// was.
func (e *roundEngine) handleUpdate(ev event, st *roundState, agg *fl.Aggregator) error {
	round := st.round
	u := ev.upd
	if u == nil {
		return protocolErrorf("round %d: client %d sent a relay partial on the client tier", round, ev.id)
	}
	// received counts before classification; the accepted/rejected/stale
	// split below sums to it at quiescence.
	if e.metrics != nil {
		e.metrics.received.Inc()
	}
	if u.Round < round {
		if e.metrics != nil {
			e.metrics.stale.Inc()
		}
		return nil // stale re-send of an already-aggregated round
	}
	if u.Round > round {
		return protocolErrorf("client %d sent round %d during round %d", ev.id, u.Round, round)
	}
	st.respond(ev.id)
	if st.recs[ev.id] {
		// An idempotent duplicate (reconnect re-send) is a stale copy of
		// an already-counted update.
		if e.metrics != nil {
			e.metrics.stale.Inc()
		}
		return nil
	}
	// The mask hash proves the bitsets agree; the generation is the
	// cheaper first tripwire, and the one echoed to clients so they can
	// match a sparse global against their local mask history.
	if ev.maskGen >= 0 {
		if st.meta.maskGen >= 0 && ev.maskGen != st.meta.maskGen {
			return fmt.Errorf("%w: round %d: client %d mask generation %d, round generation %d",
				ErrMaskDivergence, round, ev.id, ev.maskGen, st.meta.maskGen)
		}
		st.meta.maskGen = ev.maskGen
	}
	if err := e.admit(ev.id, round, u, agg); err != nil {
		if !e.faultTolerant() {
			// The strict barrier cannot complete without this client, so a
			// poisoned update aborts the run.
			return fmt.Errorf("transport: round %d: %w", round, err)
		}
		if e.metrics != nil {
			e.metrics.rejected.Inc()
		}
		e.sink.rejectUpdate(ev.id, round, err)
		return nil
	}
	// Positional averaging of compact payloads is only sound when every
	// participant froze the same coordinates; disagreement is fatal in
	// both modes — a round that mixed masks must never commit.
	if st.firstID < 0 {
		st.firstID, st.meta.maskHash = ev.id, u.MaskHash
	} else if u.MaskHash != st.meta.maskHash {
		return fmt.Errorf("%w: round %d: client %d mask hash %016x, client %d mask hash %016x",
			ErrMaskDivergence, round, st.firstID, st.meta.maskHash, ev.id, u.MaskHash)
	}
	st.recs[ev.id] = true
	st.count++
	if e.metrics != nil {
		e.metrics.accepted.Inc()
	}
	return nil
}

// handlePartial is handleUpdate's root-tier counterpart: one relay's
// pre-aggregated partial sum. Admission is the exact merge, straight from
// the packed section of the frame the partial arrived in
// (fl.Aggregator.AddPartial validates dimensions, counts, weight sign,
// poison); the mask-hash agreement check spans relays exactly as it spans
// clients — every client folded into any partial attested the hash its
// relay carries upstream.
func (e *roundEngine) handlePartial(ev event, st *roundState, agg *fl.Aggregator) error {
	round := st.round
	p := ev.part
	if p == nil {
		return protocolErrorf("round %d: relay %d sent a client update on the root tier", round, ev.id)
	}
	if e.metrics != nil {
		e.metrics.received.Inc()
	}
	if p.Round < round {
		if e.metrics != nil {
			e.metrics.stale.Inc()
		}
		return nil // stale re-send of an already-aggregated round
	}
	if p.Round > round {
		return protocolErrorf("relay %d sent round %d during round %d", ev.id, p.Round, round)
	}
	st.respond(ev.id)
	if st.recs[ev.id] {
		if e.metrics != nil {
			e.metrics.stale.Inc()
		}
		return nil
	}
	if err := agg.AddPartial(ev.id, &p.Sum); err != nil {
		if !e.faultTolerant() {
			return fmt.Errorf("transport: round %d: %w", round, err)
		}
		if e.metrics != nil {
			e.metrics.rejected.Inc()
		}
		e.sink.rejectUpdate(ev.id, round, err)
		return nil
	}
	if st.firstID < 0 {
		st.firstID, st.meta.maskHash = ev.id, p.MaskHash
	} else if p.MaskHash != st.meta.maskHash {
		return fmt.Errorf("%w: round %d: relay %d mask hash %016x, relay %d mask hash %016x",
			ErrMaskDivergence, round, st.firstID, st.meta.maskHash, ev.id, p.MaskHash)
	}
	st.recs[ev.id] = true
	st.count++
	if e.metrics != nil {
		e.metrics.accepted.Inc()
	}
	return nil
}

// admit runs one update through the sanitization hook and the
// aggregator's independent guards. The validator (when configured) is the
// first line — typed rejections, strikes, quarantine; fl.Aggregator.Add
// re-checks finiteness, weight validity, and cross-client payload-length
// agreement regardless, so even with sanitization disabled a poisoned
// contribution cannot fold into the round.
func (e *roundEngine) admit(id, round int, u *UpdateMsg, agg *fl.Aggregator) error {
	var norm float64
	if e.validator != nil {
		var err error
		norm, err = e.validator.Check(id, round, u.Payload, u.Weight)
		if e.metrics != nil {
			if cos, ok := e.validator.LastCosine(); ok {
				e.metrics.cosine.Observe(cos)
			}
		}
		if err != nil {
			return err
		}
	}
	if err := agg.Add(id, u.Payload, u.Weight); err != nil {
		if errors.Is(err, fl.ErrLengthMismatch) {
			// Cross-client geometry disagreement is a protocol violation
			// (misaligned compact payloads), not a sanitization matter.
			return protocolErrorf("client %d: %v", id, err)
		}
		if e.validator != nil && errors.Is(err, fl.ErrNonFinite) {
			// Validator enabled but bypassed (e.g. gate raced a decode
			// quirk): still charge the strike so repeat offenders
			// quarantine.
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
