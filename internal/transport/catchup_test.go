package transport

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// catchupDim is the model dimension of the client-side catch-up tests: two
// full mask words and a partial one.
const catchupDim = 150

// newCatchupRun builds the slice of a client run that applying a catch-up
// frame touches: a replica's flat model and APF manager at no applied
// round, and an upload frame left over from an earlier round (length 10,
// capacity 4096).
func newCatchupRun(t *testing.T) *clientRun {
	t.Helper()
	cfg := *resumeShadowConfig()
	cfg.Dim = catchupDim
	return &clientRun{
		metrics:  newClientMetrics(nil),
		log:      telemetry.With(nil),
		rep:      &fl.Replica{X: make([]float64, catchupDim), Manager: core.NewManager(cfg)},
		dim:      catchupDim,
		applied:  -1,
		inflight: make([]byte, 10, 4096),
	}
}

// catchupFollower is the server side of the tests: a follower of the
// clients' configuration that has folded rounds 0…5.
func catchupFollower(t *testing.T) *core.Follower {
	t.Helper()
	cfg := *resumeShadowConfig()
	cfg.Dim = catchupDim
	f := core.NewFollower(cfg)
	for r := 0; r <= 5; r++ {
		p := make([]float64, catchupDim)
		for j := range p {
			p[j] = math.Sin(float64(r*catchupDim + j))
		}
		if err := f.Observe(r, p); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// requireInflightKept fails unless the client's upload frame survived the
// catch-up as an empty buffer with its capacity: the next upload encodes
// into it instead of allocating a model-sized frame.
func requireInflightKept(t *testing.T, r *clientRun) {
	t.Helper()
	if len(r.inflight) != 0 || cap(r.inflight) != 4096 {
		t.Fatalf("upload frame after catch-up: len %d cap %d, want len 0 cap 4096", len(r.inflight), cap(r.inflight))
	}
}

// TestCatchUpKeepsUploadFrame applies a snapshot and a sketch delta to a
// client run holding an upload frame: each installs the server's state and
// empties the superseded frame without dropping its buffer.
func TestCatchUpKeepsUploadFrame(t *testing.T) {
	f := catchupFollower(t)
	x, st, ok := f.Capture()
	if !ok {
		t.Fatal("follower captured nothing")
	}
	check := func(t *testing.T, r *clientRun) {
		t.Helper()
		requireInflightKept(t, r)
		if r.applied != f.Round() || !sameBits(r.rep.X, x) {
			t.Fatalf("caught up to round %d (model equal %v), want round %d", r.applied, sameBits(r.rep.X, x), f.Round())
		}
		if !reflect.DeepEqual(r.rep.Manager.(*core.Manager).Snapshot(), st) {
			t.Fatal("client manager differs from the captured state")
		}
	}
	t.Run("snapshot", func(t *testing.T) {
		r := newCatchupRun(t)
		sm := &wire.SnapshotMsg{Round: f.Round(), MaskGen: f.MaskGeneration(), Payload: x,
			Manager: checkpoint.EncodeManager(st)}
		if err := r.applySnapshot(sm); err != nil {
			t.Fatal(err)
		}
		check(t, r)
	})
	t.Run("sketch", func(t *testing.T) {
		r := newCatchupRun(t)
		d := &wire.DeltaMsg{Round: f.Round(), MaskGen: f.MaskGeneration(), Header: st.SyncHeader()}
		for w := range st.WordGen {
			d.Words = append(d.Words, st.WordBlock(w, x))
		}
		if err := r.applyDelta(d); err != nil {
			t.Fatal(err)
		}
		check(t, r)
	})
}

// TestApplySnapshotRefusesUnseededTracker hands a client a snapshot whose
// manager state has observed rounds but carries no seeded bitmap — a state
// no replica emits — and expects a protocol error, not an adopted
// "everything seeded" tracker.
func TestApplySnapshotRefusesUnseededTracker(t *testing.T) {
	f := catchupFollower(t)
	x, st, _ := f.Capture()
	st.Tracker.Seeded = nil
	r := newCatchupRun(t)
	err := r.applySnapshot(&wire.SnapshotMsg{Round: f.Round(), MaskGen: f.MaskGeneration(), Payload: x,
		Manager: checkpoint.EncodeManager(st)})
	if !errors.Is(err, errProtocol) {
		t.Fatalf("snapshot without a seeded bitmap: got %v, want a protocol error", err)
	}
	if r.applied != -1 {
		t.Fatalf("refused snapshot advanced the client to round %d", r.applied)
	}
}
