package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"apf/internal/bitset"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/nn"
	"apf/internal/stats"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// catchupDim is the model dimension of the client-side catch-up tests: two
// full mask words and a partial one.
const catchupDim = 150

// newCatchupRun builds the slice of a client run that applying a catch-up
// frame touches: a replica's flat model and APF manager of dimension dim
// at no applied round, and an upload frame left over from an earlier round
// (length 10, capacity 4096).
func newCatchupRun(dim int) *clientRun {
	cfg := *resumeShadowConfig()
	cfg.Dim = dim
	return &clientRun{
		metrics:  newClientMetrics(nil),
		log:      telemetry.With(nil),
		rep:      &fl.Replica{X: make([]float64, dim), Manager: core.NewManager(cfg)},
		dim:      dim,
		applied:  -1,
		inflight: make([]byte, 10, 4096),
	}
}

// catchupFollower is the server side of the tests: a follower of the
// clients' configuration at dimension dim that has folded rounds 0…5.
func catchupFollower(dim int) *core.Follower {
	cfg := *resumeShadowConfig()
	cfg.Dim = dim
	f := core.NewFollower(cfg)
	for r := 0; r <= 5; r++ {
		p := make([]float64, dim)
		for j := range p {
			p[j] = math.Sin(float64(r*dim + j))
		}
		if err := f.Observe(r, p); err != nil {
			panic(err)
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

// allWords lists every mask word of a catch-up test model.
var allWords = []int{0, 1, 2}

// wordSnapshot is the frame closing a decoded sketch: the capture
// restricted to words, with their model scalars.
func wordSnapshot(t *testing.T, round, gen int, x []float64, st *core.State, words []int) *wire.SnapshotMsg {
	t.Helper()
	part, err := st.Select(words)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.SnapshotMsg{Round: round, MaskGen: gen, Payload: bitset.GatherWords(x, words),
		Manager: core.EncodeState(part)}
}

// TestCatchUpKeepsUploadFrame applies a full snapshot and the snapshot of
// every word closing a sketch to a client run holding an upload frame: each
// installs the server's state and empties the superseded frame without
// dropping its buffer.
func TestCatchUpKeepsUploadFrame(t *testing.T) {
	f := catchupFollower(catchupDim)
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
		r := newCatchupRun(catchupDim)
		sm := &wire.SnapshotMsg{Round: f.Round(), MaskGen: f.MaskGeneration(), Payload: x,
			Manager: core.EncodeState(st)}
		if err := r.applySnapshot(sm, nil); err != nil {
			t.Fatal(err)
		}
		check(t, r)
	})
	t.Run("sketch", func(t *testing.T) {
		r := newCatchupRun(catchupDim)
		if err := r.applySnapshot(wordSnapshot(t, f.Round(), f.MaskGeneration(), x, st, allWords), allWords); err != nil {
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
	f := catchupFollower(catchupDim)
	x, st, _ := f.Capture()
	st.Tracker.Seeded = nil
	r := newCatchupRun(catchupDim)
	err := r.applySnapshot(&wire.SnapshotMsg{Round: f.Round(), MaskGen: f.MaskGeneration(), Payload: x,
		Manager: core.EncodeState(st)}, nil)
	if !errors.Is(err, errProtocol) {
		t.Fatalf("snapshot without a seeded bitmap: got %v, want a protocol error", err)
	}
	if r.applied != -1 {
		t.Fatalf("refused snapshot advanced the client to round %d", r.applied)
	}
}

// TestApplySnapshotCoverage pins which snapshots a client adopts given the
// word list it sent: a word-restricted snapshot only as the reply to
// exactly the words it asked for — never mid-stream, where the round loop
// sent none — and a full one always. A refused frame changes nothing; an
// adopted word-restricted one installs its words and the header, and
// leaves every other word alone.
func TestApplySnapshotCoverage(t *testing.T) {
	f := catchupFollower(catchupDim)
	x, st, _ := f.Capture()
	round, gen := f.Round(), f.MaskGeneration()
	fresh := newCatchupRun(catchupDim).rep.Manager.(*core.Manager).Snapshot()
	modelSized := wordSnapshot(t, round, gen, x, st, []int{0, 2})
	modelSized.Payload = x
	for _, tc := range []struct {
		name  string
		sent  []int
		frame *wire.SnapshotMsg
		ok    bool
	}{
		{"word-restricted mid-stream", nil, wordSnapshot(t, round, gen, x, st, []int{0, 2}), false},
		{"every word, none requested", nil, wordSnapshot(t, round, gen, x, st, allWords), false},
		{"other words", []int{0, 1}, wordSnapshot(t, round, gen, x, st, []int{0, 2}), false},
		{"fewer words", allWords, wordSnapshot(t, round, gen, x, st, []int{0, 2}), false},
		{"payload of the whole model", []int{0, 2}, modelSized, false},
		{"requested words", []int{0, 2}, wordSnapshot(t, round, gen, x, st, []int{0, 2}), true},
		{"no word", []int{}, wordSnapshot(t, round, gen, x, st, []int{}), true},
		{"full after words", []int{0, 2}, &wire.SnapshotMsg{Round: round, MaskGen: gen, Payload: x,
			Manager: core.EncodeState(st)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCatchupRun(catchupDim)
			err := r.applySnapshot(tc.frame, tc.sent)
			got := r.rep.Manager.(*core.Manager).Snapshot()
			if !tc.ok {
				if !errors.Is(err, errProtocol) {
					t.Fatalf("got %v, want a protocol error", err)
				}
				if r.applied != -1 || !reflect.DeepEqual(got, fresh) || !sameBits(r.rep.X, make([]float64, catchupDim)) {
					t.Fatal("a refused snapshot changed the client")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if r.applied != round || got.LastRound != st.LastRound || got.Tracker.Seen != st.Tracker.Seen {
				t.Fatalf("applied round %d, last round %d: header not installed", r.applied, got.LastRound)
			}
			covered := tc.sent
			if tc.name == "full after words" {
				covered = allWords
			}
			for _, w := range allWords {
				want, wantX := st, x
				if !slices.Contains(covered, w) {
					want, wantX = fresh, make([]float64, catchupDim)
				}
				gw, _ := got.Select([]int{w})
				ww, _ := want.Select([]int{w})
				if !reflect.DeepEqual(gw.Ref, ww.Ref) || !reflect.DeepEqual(gw.WordGen, ww.WordGen) ||
					!sameBits(bitset.GatherWords(r.rep.X, []int{w}), bitset.GatherWords(wantX, []int{w})) {
					t.Fatalf("word %d: covered %v, state or model not as expected", w, slices.Contains(covered, w))
				}
			}
		})
	}
}

// TestCatchUpSnapshotModeRefusesPartial scripts a server that answers a
// snapshot-mode offer — no word list sent — with a word-restricted
// snapshot: the conversation hands it over with no words, and the client
// refuses it.
func TestCatchUpSnapshotModeRefusesPartial(t *testing.T) {
	f := catchupFollower(catchupDim)
	x, st, _ := f.Capture()
	r := newCatchupRun(catchupDim) // no applied round: the offer requests the snapshot
	reply := wordSnapshot(t, f.Round(), f.MaskGeneration(), x, st, []int{1})
	peer, end := net.Pipe()
	defer closeQuietly(peer)
	defer closeQuietly(end)
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- func() error {
			m, err := readMsg(peer, 2*time.Second, wire.MaxPayload, nil)
			if err != nil {
				return err
			}
			if o, ok := m.(*ResumeOfferMsg); !ok || o.MaskGen != -1 || o.Words != nil {
				return fmt.Errorf("expected a snapshot-mode offer, got %#v", m)
			}
			return writeMsg(peer, 2*time.Second, reply, nil)
		}()
	}()
	u := &uplink{ioTimeout: 2 * time.Second}
	w := &WelcomeMsg{Round: f.Round(), Resumed: true, CatchUp: true, MaskGen: f.MaskGeneration()}
	snap, words, err := u.catchUp(&countingConn{Conn: end, total: new(byteCount)}, w, r.applied, catchupDim, r.rep.Manager)
	if perr := <-peerErr; perr != nil {
		t.Fatalf("scripted server: %v", perr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if words != nil {
		t.Fatalf("snapshot-mode conversation reports words %v sent", words)
	}
	if err := r.applySnapshot(snap, words); !errors.Is(err, errProtocol) {
		t.Fatalf("word-restricted reply to a snapshot-mode offer: got %v, want a protocol error", err)
	}
}

// TestCatchUpWordListRejected drives the server's side of a sketch with
// one table of closing word lists: a list outside the model, one naming a
// word twice, one out of order and one longer than the model are protocol
// errors answered with nothing; a valid list is answered with a snapshot
// covering exactly it.
func TestCatchUpWordListRejected(t *testing.T) {
	srv := startServer(t, 1, 1)
	defer closeQuietly(srv.ln)
	f := catchupFollower(catchupDim)
	x, st, _ := f.Capture()
	cap := &catchupCapture{round: f.Round(), gen: f.MaskGeneration(), x: x, state: st}
	for _, tc := range []struct {
		name  string
		words []int
		ok    bool
	}{
		{"out of range", []int{0, 3}, false},
		{"negative", []int{-1}, false},
		{"duplicate", []int{1, 1}, false},
		{"out of order", []int{2, 0}, false},
		{"too many", []int{0, 1, 2, 3, 4}, false},
		{"valid", []int{0, 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, end := net.Pipe()
			defer closeQuietly(peer)
			defer closeQuietly(end)
			reply := make(chan wire.Msg, 1)
			peerErr := make(chan error, 1)
			go func() {
				peerErr <- func() error {
					if err := writeMsg(peer, 2*time.Second, &ResumeOfferMsg{Round: 3, MaskGen: cap.gen}, nil); err != nil {
						return err
					}
					if _, err := readMsg(peer, 2*time.Second, wire.MaxPayload, nil); err != nil {
						return err
					}
					if err := writeMsg(peer, 2*time.Second, &ResumeOfferMsg{Round: 3, MaskGen: cap.gen, Words: tc.words}, nil); err != nil {
						return err
					}
					if m, err := readMsg(peer, 2*time.Second, wire.MaxPayload, nil); err == nil {
						reply <- m
					}
					return nil
				}()
			}()
			cc := srv.track(end)
			_, err := srv.runCatchup(cc, cap)
			closeQuietly(end) // unblocks the peer's read after a refusal
			if perr := <-peerErr; perr != nil {
				t.Fatalf("peer: %v", perr)
			}
			if !tc.ok {
				if !errors.Is(err, errProtocol) {
					t.Fatalf("word list %v: got %v, want a protocol error", tc.words, err)
				}
				if len(reply) != 0 {
					t.Fatalf("word list %v answered with a frame", tc.words)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			sm, ok := (<-reply).(*SnapshotMsg)
			if !ok {
				t.Fatal("valid word list not answered with a snapshot")
			}
			part, err := core.DecodeState(sm.Manager)
			if err != nil || !slices.Equal(part.Words, tc.words) || !sameBits(sm.Payload, bitset.GatherWords(x, tc.words)) {
				t.Fatalf("reply covers %v (decode error %v), want words %v and their scalars", part.Words, err, tc.words)
			}
		})
	}
}

// TestClientRefusesWordRestrictedSnapshotMidStream scripts a server that
// answers a client's round-0 update with a word-restricted snapshot in
// place of the round's global: the round loop sent no word list, so the
// client stops with a protocol error instead of adopting a partial replica.
func TestClientRefusesWordRestrictedSnapshotMidStream(t *testing.T) {
	ds := data.SynthImages(data.ImageConfig{Classes: 3, Channels: 1, Size: 6, Samples: 30, NoiseStd: 0.5, Seed: 5})
	init := nn.FlattenParams(tinyModel(stats.SplitRNG(5, 99)).Params(), nil)
	dim := len(init)
	part, err := apfChaosFactory(0, dim).(*core.Manager).Snapshot().Select([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuietly(ln)
	const ioT = 5 * time.Second
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer closeQuietly(conn)
			if _, err := readMsg(conn, ioT, wire.MaxPayload, nil); err != nil {
				return fmt.Errorf("join: %w", err)
			}
			w := &WelcomeMsg{ClientID: 0, NumClients: 1, Rounds: 5, Dim: dim, Init: init}
			if err := writeMsg(conn, ioT, w, nil); err != nil {
				return fmt.Errorf("welcome: %w", err)
			}
			if _, err := readMsg(conn, ioT, wire.MaxPayload, nil); err != nil {
				return fmt.Errorf("update: %w", err)
			}
			sm := &SnapshotMsg{Round: 2, MaskGen: 0, Payload: init[:64], Manager: core.EncodeState(part)}
			if err := writeMsg(conn, ioT, sm, nil); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			// The client must hang up rather than push round 3.
			if m, err := readMsg(conn, ioT, wire.MaxPayload, nil); err == nil {
				return fmt.Errorf("client sent %s after a word-restricted snapshot", m.WireKind())
			}
			return nil
		}()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = RunClient(ctx, ClientConfig{
		Addr: ln.Addr().String(), Name: "mid", SessionKey: "mid",
		Model: tinyModel, Optimizer: tinySGD, Manager: apfChaosFactory,
		Data: ds, Indices: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, LocalIters: 1, BatchSize: 5, Seed: 5,
	})
	if !errors.Is(err, errProtocol) {
		t.Fatalf("word-restricted snapshot mid-stream: got %v, want a protocol error", err)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}
}
