package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"apf/internal/fl"
	"apf/internal/quantize"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// testSink records the engine's sink calls in-process, without sockets.
type testSink struct {
	mu       sync.Mutex
	commits  []GlobalMsg
	metas    []roundMeta
	partials []bool
	rejected []int    // client ids whose updates were rejected, in order
	reasons  []string // the rejections' error texts, in order
	struck   []int    // client ids struck by the post-round review, in order
}

func (s *testSink) markRound(int) {}

func (s *testSink) rejectUpdate(id, round int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejected = append(s.rejected, id)
	s.reasons = append(s.reasons, err.Error())
}

func (s *testSink) strikeClient(id, round int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.struck = append(s.struck, id)
}

func (s *testSink) commitRound(g *GlobalMsg, meta roundMeta, partial bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits = append(s.commits, *g)
	s.metas = append(s.metas, meta)
	s.partials = append(s.partials, partial)
	return nil
}

func (s *testSink) commitJump(g *GlobalMsg, _ *wire.SnapshotMsg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits = append(s.commits, *g)
	s.metas = append(s.metas, roundMeta{maskGen: -1})
	s.partials = append(s.partials, false)
	return nil
}

// runEngine drives one engine to completion against its testSink.
func runEngine(t *testing.T, e *roundEngine, feed func(chan<- event)) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	events := make(chan event, 64)
	e.events = events
	done := make(chan error, 1)
	go func() { done <- e.run(ctx, 0) }()
	feed(events)
	err := <-done
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("engine hung: round never completed within the test budget")
	}
	return err
}

// TestDeadlineStragglerCommits is the regression test for the
// missed-deadline barrier bug: when the round deadline fires below the
// aggregation floor, the round must still commit as soon as a straggler
// lifts the count to the floor — not silently revert to the full barrier
// and wait for every client. On the pre-fix engine this test times out:
// after the expired deadline the loop only returned at count == clients.
func TestDeadlineStragglerCommits(t *testing.T) {
	sink := &testSink{}
	e := &roundEngine{
		clients:    3,
		rounds:     1,
		deadline:   40 * time.Millisecond,
		minClients: 2,
		sink:       sink,
	}
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{2, 4}, Weight: 1}}
		// Let the deadline expire with one update — below the floor of 2.
		time.Sleep(160 * time.Millisecond)
		// The straggler reaches the floor; the round must commit now, with
		// client 2 never reporting.
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{4, 6}, Weight: 1}}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sink.commits) != 1 || sink.commits[0].Participants != 2 {
		t.Fatalf("commits = %+v, want one round with 2 participants", sink.commits)
	}
	if !sink.partials[0] {
		t.Error("a 2-of-3 round must commit as partial")
	}
	if global := sink.commits[0].Payload; global[0] != 3 || global[1] != 5 {
		t.Errorf("global = %v, want the 2-client average [3 5]", global)
	}
}

// TestDeadlineBeforeFloorStillWaits pins the other side of the deadline
// contract: an expired deadline below minClients keeps collecting rather
// than aggregating too few.
func TestDeadlineBeforeFloorStillWaits(t *testing.T) {
	sink := &testSink{}
	e := &roundEngine{
		clients:    2,
		rounds:     1,
		deadline:   30 * time.Millisecond,
		minClients: 2,
		sink:       sink,
	}
	err := runEngine(t, e, func(events chan<- event) {
		time.Sleep(100 * time.Millisecond) // deadline expires with zero updates
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{2, 2}, Weight: 1}}
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{4, 4}, Weight: 1}}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sink.commits[0].Participants != 2 {
		t.Fatalf("participants = %d, want 2 (floor must hold through the expired deadline)",
			sink.commits[0].Participants)
	}
}

// TestQuarantineResponseBarrier is the regression test for the wire-byte
// determinism race (EXPERIMENTS.md): with a quarantined client excluded
// from the round target, the old close rule returned the instant every
// other client accepted — racing the quarantined client's own (reconnect
// re-send) push, so whether that frame landed before or after the commit
// was a scheduling accident and replay byte counts wobbled. The fixed rule
// holds the round open until every slot responded — accepted or rejected —
// so the close point is a deterministic position in every client's stream.
func TestQuarantineResponseBarrier(t *testing.T) {
	sink := &testSink{}
	v := NewValidator(ValidatorConfig{Clients: 3, Dim: 2, StrikeLimit: 1})
	v.strike(2, 0, errProtocol) // client 2 pre-quarantined
	if !v.Quarantined(2) {
		t.Fatal("setup: client 2 not quarantined")
	}
	e := &roundEngine{
		clients:    3,
		rounds:     1,
		deadline:   5 * time.Second, // far beyond the test budget: never fires
		minClients: 1,
		validator:  v,
		sink:       sink,
	}
	committedEarly := false
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{2, 2}, Weight: 1}}
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{4, 4}, Weight: 1}}
		// Both non-quarantined clients accepted; the pre-fix engine commits
		// here. Give it every chance to misbehave before the third event.
		time.Sleep(120 * time.Millisecond)
		sink.mu.Lock()
		committedEarly = len(sink.commits) > 0
		sink.mu.Unlock()
		// The quarantined client's push is rejected — and that rejection is
		// the response the barrier was waiting for.
		events <- event{id: 2, upd: &UpdateMsg{Round: 0, Payload: []float64{9, 9}, Weight: 1}}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if committedEarly {
		t.Fatal("round committed before the quarantined client responded: close timing races its re-send")
	}
	if len(sink.commits) != 1 || sink.commits[0].Participants != 2 {
		t.Fatalf("commits = %+v, want one round with 2 participants", sink.commits)
	}
}

// TestEngineStrikesUnfoldableUpdate: an update the validator passes but
// whose scalar the exact fold cannot hold (1e19 at weight 1) is refused by
// the aggregator, on a flat and on a streaming (relay) aggregator alike,
// and charged a strike like a non-finite one; the honest update after it
// is accepted and the round reduces.
func TestEngineStrikesUnfoldableUpdate(t *testing.T) {
	for _, stream := range []bool{false, true} {
		v := NewValidator(ValidatorConfig{Clients: 2, Dim: 2, StrikeLimit: 100})
		sink := &testSink{}
		e := &roundEngine{clients: 2, rounds: 1, deadline: time.Hour, minClients: 1, validator: v,
			sink: sink, metrics: newEngineMetrics(telemetry.New())}
		agg := fl.NewAggregator(1)
		defer agg.Close()
		agg.SetStreaming(stream)
		agg.Open(0, 2)
		st := &roundState{}
		st.reset(0, 2)
		for id, p := range [][]float64{{1e19, 0.25}, {0.5, 0.25}} {
			if err := e.handle(event{id: id, upd: &UpdateMsg{Payload: p, Weight: 1}, maskGen: -1}, st, agg); err != nil {
				t.Fatalf("stream=%v: %v", stream, err)
			}
		}
		if v.Strikes(0) != 1 || v.Strikes(1) != 0 || len(sink.rejected) != 1 || sink.rejected[0] != 0 ||
			!strings.Contains(sink.reasons[0], fl.ErrAccumOverflow.Error()) {
			t.Fatalf("stream=%v: strikes %d/%d, rejections %v %q, want client 0 refused for overflow and struck",
				stream, v.Strikes(0), v.Strikes(1), sink.rejected, sink.reasons)
		}
		out := make([]float64, 2)
		if n, ok := agg.Reduce(out); !ok || n != 1 || out[0] != 0.5 || out[1] != 0.25 {
			t.Fatalf("stream=%v: reduced %v (%d, %v), want the honest update alone", stream, out, n, ok)
		}
	}
}

// TestEngineStrikesSummedOverflow: four clients each sending 2^61 at
// weight 1 — products the old ±2^63 range held, a sum it did not — are
// each refused by the aggregator for overflow and struck, on a flat and on
// a streaming aggregator alike; the honest fifth client is admitted and
// unstruck, and both modes commit its update bit for bit.
func TestEngineStrikesSummedOverflow(t *testing.T) {
	honest := []float64{0.5, 0.25}
	for _, stream := range []bool{false, true} {
		v := NewValidator(ValidatorConfig{Clients: 5, Dim: 2, StrikeLimit: 100})
		sink := &testSink{}
		e := &roundEngine{clients: 5, rounds: 1, deadline: time.Hour, minClients: 1, validator: v,
			sink: sink, metrics: newEngineMetrics(telemetry.New())}
		agg := fl.NewAggregator(1)
		defer agg.Close()
		agg.SetStreaming(stream)
		agg.Open(0, 5)
		st := &roundState{}
		st.reset(0, 5)
		for id := 0; id < 5; id++ {
			p := []float64{0x1p61, 0.25}
			if id == 4 {
				p = honest
			}
			if err := e.handle(event{id: id, upd: &UpdateMsg{Payload: p, Weight: 1}, maskGen: -1}, st, agg); err != nil {
				t.Fatalf("stream=%v client %d: %v", stream, id, err)
			}
		}
		for id := 0; id < 5; id++ {
			want := 0
			if id < 4 {
				want = 1
			}
			if v.Strikes(id) != want {
				t.Errorf("stream=%v: client %d has %d strikes, want %d", stream, id, v.Strikes(id), want)
			}
		}
		if !slices.Equal(sink.rejected, []int{0, 1, 2, 3}) {
			t.Errorf("stream=%v: rejected %v, want clients 0-3", stream, sink.rejected)
		}
		for _, r := range sink.reasons {
			if !strings.Contains(r, fl.ErrAccumOverflow.Error()) {
				t.Errorf("stream=%v: rejection %q is not an overflow", stream, r)
			}
		}
		out := make([]float64, 2)
		if n, ok := agg.Reduce(out); !ok || n != 1 || !slices.Equal(out, honest) {
			t.Fatalf("stream=%v: reduced %v (%d, %v), want the honest update alone", stream, out, n, ok)
		}
	}
}

// TestQuarantineBarrierDeadlineStillTrumps pins the barrier's bound: a
// quarantined client that never speaks (severed for good) cannot hold the
// round past the deadline — the same budget any honest straggler gets.
func TestQuarantineBarrierDeadlineStillTrumps(t *testing.T) {
	sink := &testSink{}
	v := NewValidator(ValidatorConfig{Clients: 3, Dim: 2, StrikeLimit: 1})
	v.strike(2, 0, errProtocol)
	e := &roundEngine{
		clients:    3,
		rounds:     1,
		deadline:   60 * time.Millisecond,
		minClients: 1,
		validator:  v,
		sink:       sink,
	}
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{2, 2}, Weight: 1}}
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{4, 4}, Weight: 1}}
		// Client 2 stays mute; only the deadline can close the round.
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sink.commits) != 1 || sink.commits[0].Participants != 2 {
		t.Fatalf("commits = %+v, want one deadline-closed round with 2 participants", sink.commits)
	}
}

// TestEngineSparseMetaCommitted checks the round's mask evidence reaches
// the sink: the agreed hash from the updates, the generation the sparse
// frames carried.
func TestEngineSparseMetaCommitted(t *testing.T) {
	sink := &testSink{}
	e := &roundEngine{clients: 2, rounds: 1, sink: sink}
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{1, 1}, Weight: 1, MaskHash: 0xfeed}, maskGen: 3}
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{3, 3}, Weight: 1, MaskHash: 0xfeed}, maskGen: 3}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if m := sink.metas[0]; m.maskHash != 0xfeed || m.maskGen != 3 {
		t.Errorf("committed meta = %+v, want hash feed gen 3", m)
	}
}

// TestEngineMaskGenDivergence: sparse updates of one round disagreeing on
// the mask generation abort with the typed divergence error before any
// positional aggregation can mis-average.
func TestEngineMaskGenDivergence(t *testing.T) {
	e := &roundEngine{clients: 2, rounds: 1, sink: &testSink{}}
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{1, 1}, Weight: 1, MaskHash: 5}, maskGen: 1}
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{3, 3}, Weight: 1, MaskHash: 5}, maskGen: 2}
	})
	if !errors.Is(err, ErrMaskDivergence) {
		t.Fatalf("got %v, want ErrMaskDivergence", err)
	}
}

// TestEngineAdmissionGuards pins the cross-update checks a flat round
// applies before anything folds: a payload length disagreeing with an
// admitted one is a protocol violation, a negative or NaN weight is a
// non-finite contribution, and disagreeing mask hashes are the typed
// divergence — each fatal under the strict barrier, with nothing
// committed. Under a deadline a refused weight is only rejected, and the
// round commits without the absent slot as a partial round.
func TestEngineAdmissionGuards(t *testing.T) {
	good := &UpdateMsg{Round: 0, Payload: []float64{1, 2}, Weight: 1, MaskHash: 7}
	second := func(payload []float64, weight float64, hash uint64) *UpdateMsg {
		return &UpdateMsg{Round: 0, Payload: payload, Weight: weight, MaskHash: hash}
	}
	for _, tc := range []struct {
		name     string
		deadline time.Duration
		second   *UpdateMsg
		want     error // nil: the round commits
	}{
		{"length mismatch", 0, second([]float64{1}, 1, 7), errProtocol},
		{"negative weight", 0, second([]float64{3, 4}, -1, 7), fl.ErrNonFinite},
		{"NaN weight", 0, second([]float64{3, 4}, math.NaN(), 7), fl.ErrNonFinite},
		{"mask hash divergence", 0, second([]float64{3, 4}, 1, 8), ErrMaskDivergence},
		{"rejected weight leaves an absent slot", 20 * time.Millisecond, second([]float64{3, 4}, -1, 7), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &testSink{}
			e := &roundEngine{clients: 2, rounds: 1, deadline: tc.deadline, minClients: 1, sink: sink}
			err := runEngine(t, e, func(events chan<- event) {
				events <- event{id: 0, upd: good, maskGen: -1}
				events <- event{id: 1, upd: tc.second, maskGen: -1}
			})
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("got %v, want %v", err, tc.want)
				}
				if len(sink.commits) != 0 {
					t.Fatal("a refused round committed")
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(sink.rejected) != 1 || sink.rejected[0] != 1 {
				t.Errorf("rejected %v, want client 1", sink.rejected)
			}
			if len(sink.commits) != 1 || !sink.partials[0] || sink.commits[0].Participants != 1 {
				t.Fatalf("commits = %+v partial %v, want one partial round of 1", sink.commits, sink.partials)
			}
			if got := sink.commits[0].Payload; got[0] != 1 || got[1] != 2 {
				t.Errorf("committed %v, want client 0's payload alone", got)
			}
		})
	}
}

// partialOf folds weighted contributions into a PartialUpdateMsg the way
// a relay would and hands it over the way the root receives it: decoded
// from its frame, the sums still packed.
func partialOf(t *testing.T, round int, maskHash uint64, contribs [][]float64, weights []float64) *PartialUpdateMsg {
	t.Helper()
	var p fl.Partial
	for i := range contribs {
		if err := p.Fold(contribs[i], weights[i]); err != nil {
			t.Fatalf("fold: %v", err)
		}
	}
	m, _, err := wire.Decode(wire.Encode(&PartialUpdateMsg{Round: round, MaskHash: maskHash, Sum: p}), 0)
	if err != nil {
		t.Fatalf("partial frame round trip: %v", err)
	}
	return m.(*PartialUpdateMsg)
}

// TestEnginePartialTier drives the root face directly: two relay partials
// merge into the weighted mean a flat aggregator would produce over the
// same four clients, Participants counts underlying clients (not relays),
// and a duplicate partial is dropped as stale.
func TestEnginePartialTier(t *testing.T) {
	sink := &testSink{}
	e := &roundEngine{clients: 2, rounds: 1, sink: sink, partialTier: true}
	contribs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	weights := []float64{1, 2, 3, 4}
	pa := partialOf(t, 0, 0xabc, contribs[:2], weights[:2])
	pb := partialOf(t, 0, 0xabc, contribs[2:], weights[2:])
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, part: pa}
		events <- event{id: 0, part: pa} // reconnect re-send: stale, dropped
		events <- event{id: 1, part: pb}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(sink.commits) != 1 || sink.commits[0].Participants != 4 {
		t.Fatalf("commits = %+v, want one round with 4 underlying clients", sink.commits)
	}
	// The flat oracle over the same contributions, same exact arithmetic.
	flat := fl.NewAggregator(0)
	defer flat.Close()
	flat.Open(0, 4)
	for i := range contribs {
		if err := flat.Add(i, contribs[i], weights[i]); err != nil {
			t.Fatalf("flat add: %v", err)
		}
	}
	want := make([]float64, 2)
	if _, ok := flat.Reduce(want); !ok {
		t.Fatal("flat reduce failed")
	}
	global := sink.commits[0].Payload
	for j := range want {
		if global[j] != want[j] {
			t.Fatalf("global[%d] = %v, want flat oracle %v (bit-exact)", j, global[j], want[j])
		}
	}
	if sink.metas[0].maskHash != 0xabc {
		t.Errorf("committed mask hash %x, want abc", sink.metas[0].maskHash)
	}
}

// TestEnginePartialTierMaskDivergence: relays carrying different mask
// hashes abort the round, exactly as divergent clients do on the flat tier.
func TestEnginePartialTierMaskDivergence(t *testing.T) {
	e := &roundEngine{clients: 2, rounds: 1, sink: &testSink{}, partialTier: true}
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, part: partialOf(t, 0, 0x111, [][]float64{{1, 1}}, []float64{1})}
		events <- event{id: 1, part: partialOf(t, 0, 0x222, [][]float64{{2, 2}}, []float64{1})}
	})
	if !errors.Is(err, ErrMaskDivergence) {
		t.Fatalf("got %v, want ErrMaskDivergence", err)
	}
}

// TestEngineQuantizeCommit: with quantizeCommit set, every committed
// aggregate is exactly binary16-representable, so a q16 client decoding a
// sparse global holds the identical model the server committed.
func TestEngineQuantizeCommit(t *testing.T) {
	sink := &testSink{}
	e := &roundEngine{clients: 1, rounds: 1, sink: sink, quantizeCommit: true}
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{0.1, 1.0 / 3.0}, Weight: 1}}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for j, v := range sink.commits[0].Payload {
		if rt := quantize.RoundTrip(v); rt != v {
			t.Errorf("committed scalar %d = %v is not binary16-representable (round trips to %v)", j, v, rt)
		}
	}
	if sink.commits[0].Payload[0] == 0.1 {
		t.Error("0.1 survived unrounded: quantizeCommit did nothing")
	}
}

// TestEngineHandleBothTiers drives the one classifier, roundEngine.handle,
// through the same steps on both tiers — client updates on a flat engine,
// relay partials on a root engine — fault-tolerant, with a live registry
// and no sockets. Each step moves exactly one classification counter, or
// none when it is fatal (the run would abort there), so accepted +
// rejected + stale + fatal == received after every step; every error text
// is pinned. The flat arm runs once more on a zero-value (uninstrumented)
// engine and must reach the identical round: the same refusals, the same
// mask evidence, and the same aggregate, bit for bit.
func TestEngineHandleBothTiers(t *testing.T) {
	const clients, collecting = 4, 1
	type step struct {
		name    string
		id      int
		round   int // the contribution's round; the engine collects round 1
		hash    uint64
		refused bool   // a non-finite update, or a wrong-dimension partial
		moves   string // the counter the step moves; "" for a fatal step
		err     string // a fatal step's error text; %[1]s is the tier's peer
	}
	steps := []step{
		{name: "admitted", id: 0, round: 1, hash: 0x5eed, moves: "accepted"},
		{name: "stale older round", id: 1, round: 0, hash: 0x5eed, moves: "stale"},
		{name: "duplicate", id: 0, round: 1, hash: 0x5eed, moves: "stale"},
		{name: "future round", id: 3, round: 2, hash: 0x5eed,
			err: "transport: protocol violation: %[1]s 3 sent round 2 during round 1"},
		{name: "refused", id: 1, round: 1, hash: 0x5eed, refused: true, moves: "rejected"},
		{name: "admitted after a refusal", id: 2, round: 1, hash: 0x5eed, moves: "accepted"},
		{name: "hash divergence", id: 3, round: 1, hash: 0xbad,
			err: "transport: freezing mask divergence: round 1: %[1]s 0 mask hash 0000000000005eed, %[1]s 3 mask hash 0000000000000bad"},
	}
	payload := func(id int) []float64 { return []float64{float64(id) + 1, 2*float64(id) - 1, 0.5} }
	type tier struct {
		name, peer string
		partial    bool
		refusal    string // the refused step's rejection text
		event      func(s step) event
	}
	tiers := []tier{
		{
			name: "flat", peer: "client",
			refusal: "round 1 client 1: fl: non-finite contribution: scalar 0 is NaN",
			event: func(s step) event {
				p := payload(s.id)
				if s.refused {
					p[0] = math.NaN()
				}
				return event{id: s.id, upd: &UpdateMsg{Round: s.round, Weight: 1, MaskHash: s.hash, Payload: p}, maskGen: -1}
			},
		},
		{
			name: "root", peer: "relay", partial: true,
			refusal: "round 1 relay 1: fl: payload length mismatch: partial dim 3, source dim 2",
			event: func(s step) event {
				p := payload(s.id)
				if s.refused {
					p = p[:2]
				}
				return event{id: s.id, part: partialOf(t, s.round, s.hash, [][]float64{p}, []float64{1}), maskGen: -1}
			},
		},
	}

	// runArm classifies every step on a fresh round and returns what the
	// round would commit: its aggregate and its mask evidence.
	runArm := func(t *testing.T, tr tier, reg *telemetry.Registry) ([]float64, roundMeta) {
		sink := &testSink{}
		e := &roundEngine{clients: clients, rounds: collecting + 1, deadline: time.Hour, minClients: 1,
			sink: sink, partialTier: tr.partial, metrics: newEngineMetrics(reg)}
		agg := fl.NewAggregator(0)
		defer agg.Close()
		agg.SetStreaming(tr.partial)
		agg.Open(collecting, clients)
		st := &roundState{}
		st.reset(collecting, clients)
		m := &e.metrics
		counts := func() map[string]int64 {
			return map[string]int64{"received": m.received.Value(), "accepted": m.accepted.Value(),
				"rejected": m.rejected.Value(), "stale": m.stale.Value()}
		}
		fatal := int64(0)
		for _, s := range steps {
			before := counts()
			err := e.handle(tr.event(s), st, agg)
			after := counts()
			switch {
			case s.err != "":
				fatal++
				if want := fmt.Sprintf(s.err, tr.peer); err == nil || err.Error() != want {
					t.Fatalf("%s: got %v, want %q", s.name, err, want)
				}
			case err != nil:
				t.Fatalf("%s: %v", s.name, err)
			}
			if reg == nil {
				continue
			}
			for _, c := range []string{"accepted", "rejected", "stale"} {
				want := before[c]
				if c == s.moves {
					want++
				}
				if after[c] != want {
					t.Errorf("%s: %s = %d, want %d", s.name, c, after[c], want)
				}
			}
			if after["received"] != before["received"]+1 {
				t.Errorf("%s: received moved %d, want 1", s.name, after["received"]-before["received"])
			}
			if sum := after["accepted"] + after["rejected"] + after["stale"] + fatal; sum != after["received"] {
				t.Errorf("%s: accepted+rejected+stale+fatal = %d, received %d", s.name, sum, after["received"])
			}
		}
		if len(sink.rejected) != 1 || sink.rejected[0] != 1 || sink.reasons[0] != tr.refusal {
			t.Errorf("rejections %v %q, want %s 1 refused with %q", sink.rejected, sink.reasons, tr.peer, tr.refusal)
		}
		out := make([]float64, 3)
		if _, ok := agg.Reduce(out); !ok {
			t.Fatal("the round aggregates nothing")
		}
		return out, st.meta
	}

	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			out, meta := runArm(t, tr, telemetry.New())
			if meta.maskHash != 0x5eed || meta.maskGen != -1 {
				t.Errorf("mask evidence %+v, want hash 5eed and no generation", meta)
			}
			if !tr.partial {
				bare, bareMeta := runArm(t, tr, nil)
				if !sameBits(bare, out) || bareMeta != meta {
					t.Errorf("uninstrumented engine folded %v %+v, instrumented %v %+v", bare, bareMeta, out, meta)
				}
			}
		})
	}
}

// exportReducer is a relay face without an upstream: it exports the
// round's exact partial and commits its mean, or jumps to round jumpTo.
type exportReducer struct{ jumpTo int }

func (r *exportReducer) reduceRound(_ context.Context, round int, agg *fl.Aggregator, _ roundMeta) (*GlobalMsg, *wire.SnapshotMsg, error) {
	var p fl.Partial
	count, _ := agg.ExportPartial(&p)
	if r.jumpTo > round {
		return &GlobalMsg{Round: r.jumpTo}, &wire.SnapshotMsg{Round: r.jumpTo}, nil
	}
	out := make([]float64, p.Dim())
	p.Mean(out)
	return &GlobalMsg{Round: round, Payload: out, Participants: count}, nil, nil
}

// recycled drains the pool and fails unless it handed back exactly the
// given vectors, each once.
func recycled(t *testing.T, p *payloadPool, want ...[]float64) {
	t.Helper()
	seen := map[*float64]int{}
	for len(p.free) > 0 {
		v := <-p.free
		seen[&v[0]]++
	}
	for i, v := range want {
		if seen[&v[0]] != 1 {
			t.Errorf("vector %d handed back %d time(s), want once", i, seen[&v[0]])
		}
		delete(seen, &v[0])
	}
	if len(seen) != 0 {
		t.Errorf("%d vector(s) handed back that no update carried", len(seen))
	}
}

// TestEngineRecyclesEveryPayload: on every path an update can take through
// the engine — stale, duplicate, rejected, streamed by a relay face,
// reduced, discarded by a jump, aborted — its vector goes back to the pool
// exactly once, and the vector of a kept update only after the aggregator
// let go of it.
func TestEngineRecyclesEveryPayload(t *testing.T) {
	const dim = 2
	vec := func(a, b float64) []float64 { v := make([]float64, dim); v[0], v[1] = a, b; return v }
	upd := func(round int, v []float64, weight float64, hash uint64) *UpdateMsg {
		return &UpdateMsg{Round: round, Payload: v, Weight: weight, MaskHash: hash}
	}
	type fed struct {
		id  int
		upd *UpdateMsg
	}
	for _, tc := range []struct {
		name     string
		engine   roundEngine
		rounds   int
		events   func(v [][]float64) []fed
		vectors  int
		wantErr  error
		canceled bool
	}{
		{"reduced and stale", roundEngine{clients: 2}, 2, func(v [][]float64) []fed {
			return []fed{{0, upd(0, v[0], 1, 0)}, {1, upd(0, v[1], 1, 0)},
				{0, upd(0, v[2], 1, 0)}, // a re-send of the committed round
				{0, upd(1, v[3], 1, 0)}, {1, upd(1, v[4], 1, 0)}}
		}, 5, nil, false},
		{"duplicate", roundEngine{clients: 2}, 1, func(v [][]float64) []fed {
			return []fed{{0, upd(0, v[0], 1, 0)}, {0, upd(0, v[1], 1, 0)}, {1, upd(0, v[2], 1, 0)}}
		}, 3, nil, false},
		{"rejected", roundEngine{clients: 2, deadline: 20 * time.Millisecond, minClients: 1}, 1, func(v [][]float64) []fed {
			return []fed{{0, upd(0, v[0], 1, 0)}, {1, upd(0, v[1], math.NaN(), 0)}}
		}, 2, nil, false},
		{"relay-streamed", roundEngine{clients: 2, reducer: &exportReducer{}}, 1, func(v [][]float64) []fed {
			return []fed{{0, upd(0, v[0], 1, 0)}, {1, upd(0, v[1], 2, 0)}}
		}, 2, nil, false},
		{"discarded by a jump", roundEngine{clients: 2, reducer: &exportReducer{jumpTo: 3}}, 1, func(v [][]float64) []fed {
			return []fed{{0, upd(0, v[0], 1, 0)}, {1, upd(0, v[1], 1, 0)}}
		}, 2, nil, false},
		{"aborted after admission", roundEngine{clients: 3}, 1, func(v [][]float64) []fed {
			return []fed{{0, upd(0, v[0], 1, 5)}, {1, upd(0, v[1], 1, 6)}}
		}, 2, ErrMaskDivergence, false},
		{"aborted by cancellation", roundEngine{clients: 3}, 1, func(v [][]float64) []fed {
			return []fed{{0, upd(0, v[0], 1, 0)}, {1, upd(0, v[1], 1, 0)}}
		}, 2, context.Canceled, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := newPayloadPool(dim, 16)
			vs := make([][]float64, tc.vectors)
			for i := range vs {
				vs[i] = vec(float64(i), float64(2*i))
			}
			reg := telemetry.New()
			e := tc.engine
			e.rounds, e.sink, e.payloads, e.metrics = tc.rounds, &testSink{}, pool, newEngineMetrics(reg)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			events := make(chan event, 16)
			e.events = events
			done := make(chan error, 1)
			go func() { done <- e.run(ctx, 0) }()
			for _, f := range tc.events(vs) {
				events <- event{id: f.id, upd: f.upd, maskGen: -1}
			}
			if tc.canceled {
				for reg.Snapshot()[`apf_updates_total{result="accepted"}`] < 2 {
					time.Sleep(time.Millisecond)
				}
				if len(pool.free) != 0 {
					t.Fatal("a kept vector went back before the round closed")
				}
				cancel()
			}
			if err := <-done; !errors.Is(err, tc.wantErr) {
				t.Fatalf("run: %v, want %v", err, tc.wantErr)
			}
			recycled(t, pool, vs...)
		})
	}
}

// TestPayloadPoolSizesCompactVectors: a dense payload gets a model-sized
// vector; a compact one a vector sized to it plus a quarter, reused while
// the compact length moves within that room and a quarter of it; and a
// vector more than four times a payload goes to the collector, so the
// model-sized vectors of a sparse cluster's full-length first rounds do
// not outlive them.
func TestPayloadPoolSizesCompactVectors(t *testing.T) {
	const dim = 1000
	p := newPayloadPool(dim, 1)
	first := p.get(dim)
	if len(first) != dim || cap(first) != dim {
		t.Fatalf("dense vector len %d cap %d, want %d", len(first), cap(first), dim)
	}
	p.put(first)
	compact := p.get(100)
	if len(compact) != 100 || cap(compact) != 125 || &compact[0] == &first[0] {
		t.Fatalf("compact vector len %d cap %d (model-sized vector reused: %v), want a new one of cap 125",
			len(compact), cap(compact), &compact[0] == &first[0])
	}
	p.put(compact)
	for _, n := range []int{125, 32} {
		if v := p.get(n); &v[0] != &compact[0] {
			t.Fatalf("a compact length of %d did not reuse the vector of cap 125", n)
		} else {
			p.put(v)
		}
	}
	if smaller := p.get(31); cap(smaller) != 38 {
		t.Fatalf("a compact length under a quarter of the vector's capacity got cap %d, want 38", cap(smaller))
	} else {
		p.put(smaller)
	}
	if dense := p.get(dim); cap(dense) != dim {
		t.Fatalf("dense vector cap %d after compact rounds, want %d", cap(dense), dim)
	}
}

// TestEngineDuplicateNeverSharesAVector: a second update for the same
// round on one connection goes back at once, while the admitted one stays
// with the aggregator — so the next vector a reader takes is the
// duplicate's, never the admitted slot's.
func TestEngineDuplicateNeverSharesAVector(t *testing.T) {
	pool := newPayloadPool(2, 2)
	admitted, dup := pool.get(2), pool.get(2)
	admitted[0], admitted[1], dup[0], dup[1] = 1, 2, 7, 9
	sink := &testSink{}
	e := &roundEngine{clients: 2, rounds: 1, sink: sink, payloads: pool}
	err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: admitted, Weight: 1}, maskGen: -1}
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: dup, Weight: 1}, maskGen: -1}
		for len(pool.free) == 0 {
			time.Sleep(time.Millisecond)
		}
		next := pool.get(2)
		if &next[0] != &dup[0] {
			t.Error("the reader's next vector is not the duplicate's")
		}
		next[0], next[1] = 3, 4 // the next update overwrites it
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: next, Weight: 1}, maskGen: -1}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.commits[0].Payload; got[0] != 2 || got[1] != 3 {
		t.Errorf("committed %v, want the mean of [1 2] and [3 4]", got)
	}
}

// TestEngineCommitsFullyFrozenRound: when every scalar is frozen, every
// client's compact payload is empty. With a validator armed (norm and
// cosine gates past their history) the round still commits — the empty
// aggregate — with no rejection and no strike, under the strict barrier
// and under a deadline alike.
func TestEngineCommitsFullyFrozenRound(t *testing.T) {
	for _, deadline := range []time.Duration{0, time.Hour} {
		v := NewValidator(ValidatorConfig{Clients: 2, Dim: 2, MaxNormMult: 4, CosineFloor: 0.5})
		for i := 0; i < max(normMinHistory, cosineMinHistory); i++ {
			v.Commit(math.Sqrt2, []float64{1, 1})
		}
		sink := &testSink{}
		e := &roundEngine{clients: 2, rounds: 1, deadline: deadline, minClients: 1, validator: v, sink: sink}
		err := runEngine(t, e, func(events chan<- event) {
			for id := 0; id < 2; id++ {
				events <- event{id: id, upd: &UpdateMsg{Round: 0, Weight: 1, MaskHash: 9}, maskGen: 4}
			}
		})
		if err != nil {
			t.Fatalf("deadline %v: run: %v", deadline, err)
		}
		if len(sink.rejected) != 0 || v.Strikes(0)+v.Strikes(1) != 0 {
			t.Fatalf("deadline %v: rejected %v %q, strikes %d/%d; want none", deadline, sink.rejected, sink.reasons, v.Strikes(0), v.Strikes(1))
		}
		if len(sink.commits) != 1 || sink.commits[0].Participants != 2 || len(sink.commits[0].Payload) != 0 || sink.partials[0] {
			t.Fatalf("deadline %v: commits %+v, want one full round of 2 with an empty aggregate", deadline, sink.commits)
		}
	}
}

// signalSink is a testSink that signals each commit, so a feed posts round
// r+1 only once round r has closed (an update for a future round is a
// protocol violation).
type signalSink struct {
	testSink
	committed chan struct{}
}

func (s *signalSink) commitRound(g *GlobalMsg, meta roundMeta, partial bool) error {
	err := s.testSink.commitRound(g, meta, partial)
	s.committed <- struct{}{}
	return err
}

// TestFrozenRoundsLeaveNormGateArmed: the empty payloads of fully frozen
// rounds carry no statistic, so they must not reach the norm window —
// enough zeros there would make the median 0 and switch the gate off.
// After eight such rounds of two clients, an oversized update is still
// refused by the norm gate and an honest one still passes.
func TestFrozenRoundsLeaveNormGateArmed(t *testing.T) {
	const frozen = 8
	v := NewValidator(ValidatorConfig{Clients: 2, MaxNormMult: 4})
	for i := 0; i < normMinHistory; i++ {
		v.Commit(math.Sqrt2, []float64{1, 1})
	}
	sink := &signalSink{committed: make(chan struct{}, 1)}
	e := &roundEngine{clients: 2, rounds: frozen + 1, deadline: 50 * time.Millisecond, minClients: 1, validator: v, sink: sink}
	err := runEngine(t, e, func(events chan<- event) {
		for r := 0; r < frozen; r++ {
			for id := 0; id < 2; id++ {
				events <- event{id: id, upd: &UpdateMsg{Round: r, Weight: 1}, maskGen: -1}
			}
			<-sink.committed
		}
		events <- event{id: 0, upd: &UpdateMsg{Round: frozen, Payload: []float64{1, 1}, Weight: 1}, maskGen: -1}
		events <- event{id: 1, upd: &UpdateMsg{Round: frozen, Payload: []float64{100, 100}, Weight: 1}, maskGen: -1}
		<-sink.committed
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !slices.Equal(sink.rejected, []int{1}) || !strings.Contains(sink.reasons[0], ErrNormOutlier.Error()) {
		t.Fatalf("rejected %v %q, want client 1's oversized update as a norm outlier", sink.rejected, sink.reasons)
	}
	if v.Strikes(0) != 0 || v.Strikes(1) != 1 {
		t.Fatalf("strikes %d/%d, want 0/1", v.Strikes(0), v.Strikes(1))
	}
	if last := sink.commits[len(sink.commits)-1]; len(sink.commits) != frozen+1 || last.Participants != 1 {
		t.Fatalf("%d commits, the last of %d participants; want %d, the last of client 0 alone",
			len(sink.commits), last.Participants, frozen+1)
	}
}

// labelSink is a testSink that also counts each rejection on the server's
// apf_update_rejections_total family, as Server.rejectUpdate does.
type labelSink struct {
	testSink
	metrics serverMetrics
}

func (s *labelSink) rejectUpdate(id, round int, err error) {
	s.testSink.rejectUpdate(id, round, err)
	s.metrics.recordRejection(err)
}

// TestRejectionLabelWithAndWithoutValidator: the same NaN update lands on
// the same apf_update_rejections_total reason, non_finite, whether a
// validator stands in front of the aggregator or not — one admission rule
// refuses it either way.
func TestRejectionLabelWithAndWithoutValidator(t *testing.T) {
	for _, validate := range []bool{false, true} {
		reg := telemetry.New()
		sink := &labelSink{metrics: newServerMetrics(reg)}
		e := &roundEngine{clients: 2, rounds: 1, deadline: 20 * time.Millisecond, minClients: 1, sink: sink}
		if validate {
			e.validator = NewValidator(ValidatorConfig{Clients: 2, Dim: 2})
		}
		err := runEngine(t, e, func(events chan<- event) {
			events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{1, 2}, Weight: 1}, maskGen: -1}
			events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{math.NaN(), 2}, Weight: 1}, maskGen: -1}
		})
		if err != nil {
			t.Fatalf("validator %v: run: %v", validate, err)
		}
		for _, reason := range []string{"non_finite", "dim_mismatch", "norm_outlier", "direction_outlier", "quarantined", "other"} {
			want := int64(0)
			if reason == "non_finite" {
				want = 1
			}
			if got := reg.Counter("apf_update_rejections_total", "", "reason", reason).Value(); got != want {
				t.Errorf("validator %v: reason %q counted %d, want %d", validate, reason, got, want)
			}
		}
		if validate && e.validator.Strikes(1) != 1 {
			t.Errorf("validator armed: client 1 has %d strikes, want 1", e.validator.Strikes(1))
		}
	}
}
