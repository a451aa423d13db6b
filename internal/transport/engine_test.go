package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"apf/internal/fl"
	"apf/internal/quantize"
	"apf/internal/wire"
)

// testSink records the engine's sink calls in-process, without sockets.
type testSink struct {
	mu       sync.Mutex
	commits  []GlobalMsg
	metas    []roundMeta
	partials []bool
	struck   []int // client ids struck by the post-round review, in order
}

func (s *testSink) markRound(int) {}

func (s *testSink) rejectUpdate(id, round int, err error) {}

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

func (s *testSink) commitJump(g *GlobalMsg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits = append(s.commits, *g)
	s.metas = append(s.metas, roundMeta{maskGen: -1})
	s.partials = append(s.partials, false)
	return nil
}

// runEngine drives one engine to completion against a testSink.
func runEngine(t *testing.T, e *roundEngine, feed func(chan<- event)) ([]float64, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	events := make(chan event, 64)
	e.events = events
	type result struct {
		global []float64
		err    error
	}
	done := make(chan result, 1)
	go func() {
		g, err := e.run(ctx, 0, []float64{0, 0}, nil)
		done <- result{g, err}
	}()
	feed(events)
	r := <-done
	if errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatal("engine hung: round never completed within the test budget")
	}
	return r.global, r.err
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
	global, err := runEngine(t, e, func(events chan<- event) {
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
	if global[0] != 3 || global[1] != 5 {
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
	_, err := runEngine(t, e, func(events chan<- event) {
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
	_, err := runEngine(t, e, func(events chan<- event) {
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
	_, err := runEngine(t, e, func(events chan<- event) {
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
	_, err := runEngine(t, e, func(events chan<- event) {
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
	_, err := runEngine(t, e, func(events chan<- event) {
		events <- event{id: 0, upd: &UpdateMsg{Round: 0, Payload: []float64{1, 1}, Weight: 1, MaskHash: 5}, maskGen: 1}
		events <- event{id: 1, upd: &UpdateMsg{Round: 0, Payload: []float64{3, 3}, Weight: 1, MaskHash: 5}, maskGen: 2}
	})
	if !errors.Is(err, ErrMaskDivergence) {
		t.Fatalf("got %v, want ErrMaskDivergence", err)
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
	global, err := runEngine(t, e, func(events chan<- event) {
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
	_, err := runEngine(t, e, func(events chan<- event) {
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
	_, err := runEngine(t, e, func(events chan<- event) {
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
