package transport

import (
	"bytes"
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
func catchupFollower(dim int) *core.Follower { return followerThrough(dim, 5) }

// followerThrough is a follower of the clients' configuration at
// dimension dim that has folded rounds 0…last, each aggregate a fixed
// function of its round.
func followerThrough(dim, last int) *core.Follower {
	cfg := *resumeShadowConfig()
	cfg.Dim = dim
	f := core.NewFollower(cfg)
	for r := 0; r <= last; r++ {
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

// offerDiffering is a generation vector that differs from st's in exactly
// words: what a client holding st's state outside those words offers.
func offerDiffering(st *core.State, words ...int) []uint32 {
	gens := slices.Clone(st.WordGen)
	for _, w := range words {
		gens[w]++
	}
	return gens
}

// wordSnapshot is the frame answering an offer that differs from the
// capture in words: the capture restricted to them, model scalars
// included in its Ref.
func wordSnapshot(t *testing.T, round int, st *core.State, words []int) *wire.SnapshotMsg {
	t.Helper()
	part, err := st.Select(words)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.SnapshotMsg{Round: round, Manager: core.EncodeState(part)}
}

// fullSnapshot is the frame of a full stateful capture.
func fullSnapshot(round int, st *core.State) *wire.SnapshotMsg {
	return &wire.SnapshotMsg{Round: round, Manager: core.EncodeState(st)}
}

// TestCatchUpKeepsUploadFrame applies a full snapshot and the snapshot of
// every word answering a fresh client's generation offer to a client run
// holding an upload frame: each installs the server's state and empties
// the superseded frame without dropping its buffer.
func TestCatchUpKeepsUploadFrame(t *testing.T) {
	f := catchupFollower(catchupDim)
	st, ok := f.Capture()
	if !ok {
		t.Fatal("follower captured nothing")
	}
	x := st.Ref
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
		if err := r.applySnapshot(fullSnapshot(f.Round(), st), nil); err != nil {
			t.Fatal(err)
		}
		check(t, r)
	})
	t.Run("sketch", func(t *testing.T) {
		r := newCatchupRun(catchupDim)
		gens := r.rep.Manager.(*core.Manager).WordGens()
		if err := r.applySnapshot(wordSnapshot(t, f.Round(), st, allWords), gens); err != nil {
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
	st, _ := f.Capture()
	st.Tracker.Seeded = nil
	r := newCatchupRun(catchupDim)
	err := r.applySnapshot(fullSnapshot(f.Round(), st), nil)
	if !errors.Is(err, errProtocol) {
		t.Fatalf("snapshot without a seeded bitmap: got %v, want a protocol error", err)
	}
	if r.applied != -1 {
		t.Fatalf("refused snapshot advanced the client to round %d", r.applied)
	}
}

// TestApplySnapshotCoverage pins which snapshots a client adopts given the
// generation vector it offered: a word-restricted snapshot only as the
// answer to an offer — never mid-stream, where the round loop offered
// none — and covering only words whose generations differ from the
// offered ones, and a full one always. A refused frame changes nothing;
// an adopted word-restricted one installs its words and the header, and
// leaves every other word alone.
func TestApplySnapshotCoverage(t *testing.T) {
	f := catchupFollower(catchupDim)
	st, _ := f.Capture()
	x, round := st.Ref, f.Round()
	fresh := newCatchupRun(catchupDim).rep.Manager.(*core.Manager).Snapshot()
	modelSized := wordSnapshot(t, round, st, []int{0, 2})
	modelSized.Payload = x
	for _, tc := range []struct {
		name string
		// gens is the offered generation vector (nil: none offered).
		gens  []uint32
		frame *wire.SnapshotMsg
		ok    bool
	}{
		{"word-restricted mid-stream", nil, wordSnapshot(t, round, st, []int{0, 2}), false},
		{"every word, none requested", nil, wordSnapshot(t, round, st, allWords), false},
		{"other words", offerDiffering(st, 0, 1), wordSnapshot(t, round, st, []int{0, 2}), false},
		{"word already held", offerDiffering(st), wordSnapshot(t, round, st, []int{1}), false},
		{"word past the offer", offerDiffering(st, 0, 1)[:2], wordSnapshot(t, round, st, []int{2}), false},
		{"payload of the whole model", offerDiffering(st, 0, 2), modelSized, false},
		// The client cannot see the server's generations outside the
		// covered words, so a subset of the differing words is adopted.
		{"fewer words", offerDiffering(st, allWords...), wordSnapshot(t, round, st, []int{0, 2}), true},
		{"requested words", offerDiffering(st, 0, 2), wordSnapshot(t, round, st, []int{0, 2}), true},
		{"no word", offerDiffering(st), wordSnapshot(t, round, st, []int{}), true},
		{"full after words", offerDiffering(st, 0, 2), fullSnapshot(round, st), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCatchupRun(catchupDim)
			err := r.applySnapshot(tc.frame, tc.gens)
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
			sent, err := core.DecodeState(tc.frame.Manager)
			if err != nil {
				t.Fatal(err)
			}
			covered := sent.Words
			if covered == nil {
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
// snapshot-mode offer — no generation vector sent — with a
// word-restricted snapshot: the exchange hands it over with no vector, and
// the client refuses it.
func TestCatchUpSnapshotModeRefusesPartial(t *testing.T) {
	f := catchupFollower(catchupDim)
	st, _ := f.Capture()
	r := newCatchupRun(catchupDim) // no applied round: the offer requests the snapshot
	reply := wordSnapshot(t, f.Round(), st, []int{1})
	peer, end := net.Pipe()
	defer closeQuietly(peer)
	defer closeQuietly(end)
	peerErr := make(chan error, 1)
	go func() {
		peerErr <- func() error {
			m, err := readMsg(peer, 2*time.Second, checkpoint.MaxPayload, nil)
			if err != nil {
				return err
			}
			if o, ok := m.(*ResumeOfferMsg); !ok || o.MaskGen != -1 || o.Gens != nil {
				return fmt.Errorf("expected a snapshot-mode offer, got %#v", m)
			}
			return writeMsg(peer, 2*time.Second, reply, nil)
		}()
	}()
	u := &uplink{ioTimeout: 2 * time.Second}
	w := &WelcomeMsg{Round: f.Round(), Resumed: true, CatchUp: true, MaskGen: st.CheckCount}
	snap, gens, err := u.catchUp(&countingConn{Conn: end, total: new(byteCount)}, w, r.applied, catchupDim, r.rep.Manager)
	if perr := <-peerErr; perr != nil {
		t.Fatalf("scripted server: %v", perr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if gens != nil {
		t.Fatalf("snapshot-mode exchange reports generations %v offered", gens)
	}
	if err := r.applySnapshot(snap, gens); !errors.Is(err, errProtocol) {
		t.Fatalf("word-restricted reply to a snapshot-mode offer: got %v, want a protocol error", err)
	}
}

// TestCatchUpOfferGenerations drives the server's side of the exchange
// with one table of offered generation vectors: a vector shorter or longer
// than the model's word count is a protocol error answered with nothing;
// any other is answered with a snapshot covering exactly the words whose
// generations differ (mode sketch, from no word to every word), and an
// offer without a vector with the full snapshot (mode snapshot).
func TestCatchUpOfferGenerations(t *testing.T) {
	srv := startServer(t, 1, 1)
	defer closeQuietly(srv.ln)
	f := catchupFollower(catchupDim)
	st, _ := f.Capture()
	cap := &catchupCapture{round: f.Round(), state: st}
	for _, tc := range []struct {
		name string
		gens []uint32
		// words is the coverage of the answer (nil: the full state).
		words []int
		mode  string
	}{
		{"short vector", st.WordGen[:2], nil, ""},
		{"long vector", append(slices.Clone(st.WordGen), 1), nil, ""},
		{"empty vector", []uint32{}, nil, ""},
		{"no word differs", offerDiffering(st), []int{}, "sketch"},
		{"some words differ", offerDiffering(st, 0, 2), []int{0, 2}, "sketch"},
		{"every word differs", offerDiffering(st, allWords...), allWords, "sketch"},
		{"no vector", nil, nil, "snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, end := net.Pipe()
			defer closeQuietly(peer)
			defer closeQuietly(end)
			reply := make(chan wire.Msg, 1)
			peerErr := make(chan error, 1)
			go func() {
				peerErr <- func() error {
					offer := &ResumeOfferMsg{Round: 3, MaskGen: cap.maskGen(), Gens: tc.gens}
					if err := writeMsg(peer, 2*time.Second, offer, nil); err != nil {
						return err
					}
					if m, err := readMsg(peer, 2*time.Second, checkpoint.MaxPayload, nil); err == nil {
						reply <- m
					}
					return nil
				}()
			}()
			mode, err := srv.runCatchup(srv.track(end), cap)
			closeQuietly(end) // unblocks the peer's read after a refusal
			if perr := <-peerErr; perr != nil {
				t.Fatalf("peer: %v", perr)
			}
			if tc.mode == "" {
				if !errors.Is(err, errProtocol) || mode != "" {
					t.Fatalf("%d generations: got mode %q, %v, want a protocol error", len(tc.gens), mode, err)
				}
				if len(reply) != 0 {
					t.Fatalf("%d generations answered with a frame", len(tc.gens))
				}
				return
			}
			if err != nil || mode != tc.mode {
				t.Fatalf("got mode %q, %v, want mode %q", mode, err, tc.mode)
			}
			sm, ok := (<-reply).(*SnapshotMsg)
			if !ok {
				t.Fatal("offer not answered with a snapshot")
			}
			part, err := core.DecodeState(sm.Manager)
			want := st.Ref
			if tc.words != nil {
				want = bitset.GatherWords(st.Ref, tc.words)
			}
			if err != nil || len(sm.Payload) != 0 || !slices.Equal(part.Words, tc.words) ||
				(part.Words == nil) != (tc.words == nil) || !sameBits(part.Ref, want) {
				t.Fatalf("reply covers %v (decode error %v, %d-scalar payload), want words %v and their scalars in its Ref",
					part.Words, err, len(sm.Payload), tc.words)
			}
		})
	}
}

// recordingConn keeps a copy of every byte written through it; one
// goroutine writes, and kinds reads only after that writer is done.
type recordingConn struct {
	net.Conn
	wrote []byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.wrote = append(c.wrote, p...)
	return c.Conn.Write(p)
}

// kinds decodes what was written through c into its frame kinds.
func (c *recordingConn) kinds(t *testing.T) []wire.Kind {
	t.Helper()
	var kinds []wire.Kind
	for buf := c.wrote; len(buf) > 0; {
		m, rest, err := wire.Decode(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		kinds, buf = append(kinds, m.WireKind()), rest
	}
	return kinds
}

// TestCatchUpOneExchange runs the client's and the server's side of a
// catch-up against each other: whatever the client holds — its state at an
// earlier round, the captured state itself, or no manager state — it
// writes exactly one offer and the server exactly one snapshot, and the
// client lands bit-identical to the capture, model and manager.
func TestCatchUpOneExchange(t *testing.T) {
	srv := startServer(t, 1, 1)
	defer closeQuietly(srv.ln)
	f := catchupFollower(catchupDim)
	st, _ := f.Capture()
	cap := &catchupCapture{round: f.Round(), state: st}
	earlier, _ := followerThrough(catchupDim, 2).Capture()
	for _, tc := range []struct {
		name string
		// held is the client manager's state before the exchange (nil: a
		// stateless manager).
		held *core.State
		mode string
	}{
		{"earlier round", earlier, "sketch"},
		{"no word differs", st, "sketch"},
		{"stateless", nil, "snapshot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCatchupRun(catchupDim)
			r.applied = 2
			if tc.held == nil {
				r.rep.Manager = fl.NewPassthroughManager(4)
			} else {
				if err := r.rep.Manager.(*core.Manager).RestoreSnapshot(tc.held); err != nil {
					t.Fatal(err)
				}
				copy(r.rep.X, tc.held.Ref)
			}
			pipeC, pipeS := net.Pipe()
			defer closeQuietly(pipeC)
			defer closeQuietly(pipeS)
			client, server := &recordingConn{Conn: pipeC}, &recordingConn{Conn: pipeS}
			type served struct {
				mode string
				err  error
			}
			done := make(chan served, 1)
			go func() {
				mode, err := srv.runCatchup(srv.track(server), cap)
				done <- served{mode, err}
			}()
			u := &uplink{ioTimeout: 2 * time.Second}
			w := &WelcomeMsg{Round: f.Round(), Resumed: true, CatchUp: true, MaskGen: cap.maskGen()}
			snap, gens, err := u.catchUp(&countingConn{Conn: client, total: new(byteCount)}, w, r.applied, catchupDim, r.rep.Manager)
			if err != nil {
				t.Fatal(err)
			}
			if got := <-done; got.err != nil || got.mode != tc.mode {
				t.Fatalf("server served mode %q, %v, want mode %q", got.mode, got.err, tc.mode)
			}
			if err := r.applySnapshot(snap, gens); err != nil {
				t.Fatal(err)
			}
			if k := client.kinds(t); !slices.Equal(k, []wire.Kind{wire.KindResumeOffer}) {
				t.Errorf("client wrote %v, want one resume offer", k)
			}
			if k := server.kinds(t); !slices.Equal(k, []wire.Kind{wire.KindSnapshot}) {
				t.Errorf("server wrote %v, want one snapshot", k)
			}
			if r.applied != f.Round() || !sameBits(r.rep.X, st.Ref) {
				t.Fatalf("caught up to round %d (model equal %v), want round %d", r.applied, sameBits(r.rep.X, st.Ref), f.Round())
			}
			if m, ok := r.rep.Manager.(*core.Manager); ok && !reflect.DeepEqual(m.Snapshot(), st) {
				t.Fatal("client manager differs from the captured state")
			}
		})
	}
}

// TestClientRefusesWordRestrictedSnapshotMidStream scripts a server that
// answers a client's round-0 update with a word-restricted snapshot in
// place of the round's global: the round loop offered no generations, so
// the client stops with a protocol error instead of adopting a partial
// replica.
func TestClientRefusesWordRestrictedSnapshotMidStream(t *testing.T) {
	task := newTinyTask(30, 1)
	ds, init := task.ds, task.init
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
			if _, err := readMsg(conn, ioT, checkpoint.MaxPayload, nil); err != nil {
				return fmt.Errorf("join: %w", err)
			}
			w := &WelcomeMsg{ClientID: 0, NumClients: 1, Rounds: 5, Dim: dim, Init: init}
			if err := writeMsg(conn, ioT, w, nil); err != nil {
				return fmt.Errorf("welcome: %w", err)
			}
			if _, err := readMsg(conn, ioT, checkpoint.MaxPayload, nil); err != nil {
				return fmt.Errorf("update: %w", err)
			}
			sm := &SnapshotMsg{Round: 2, Manager: core.EncodeState(part)}
			if err := writeMsg(conn, ioT, sm, nil); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			// The client must hang up rather than push round 3.
			if m, err := readMsg(conn, ioT, checkpoint.MaxPayload, nil); err == nil {
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

// TestSnapshotCarriesModelOnce pins the one-copy rule on every receiver of
// a snapshot frame — a client with a stateful manager, one with a
// stateless manager, and a relay adopting the root's state: a stateful
// frame (full or word-restricted) carries the model only as its state's
// Ref and an empty payload, a stateless frame exactly one model. Frames
// breaking the rule are protocol errors that change nothing; a valid one
// leaves the receiver's model equal to the frame's.
func TestSnapshotCarriesModelOnce(t *testing.T) {
	f := catchupFollower(catchupDim)
	st, _ := f.Capture()
	round, model := f.Round(), st.Ref
	withPayload := func(sm *wire.SnapshotMsg, p []float64) *wire.SnapshotMsg {
		sm.Payload = p
		return sm
	}
	stateless := func(p []float64) *wire.SnapshotMsg { return &wire.SnapshotMsg{Round: round, Payload: p} }
	sent := []int{0, 2}
	offered := offerDiffering(st, sent...)
	const (
		stateful = 1 << iota
		statelessClient
		relay
	)
	for _, tc := range []struct {
		name  string
		frame *wire.SnapshotMsg
		gens  []uint32
		// adopts is the set of receivers that accept the frame.
		adopts int
	}{
		{"stateful full, model repeated", withPayload(fullSnapshot(round, st), model), nil, 0},
		{"stateful full, one payload scalar", withPayload(fullSnapshot(round, st), model[:1]), nil, 0},
		{"word-restricted, scalars repeated",
			withPayload(wordSnapshot(t, round, st, sent), bitset.GatherWords(model, sent)), offered, 0},
		{"stateless, one scalar short", stateless(model[:catchupDim-1]), nil, 0},
		{"stateless, one scalar long", stateless(append(slices.Clone(model), 1)), nil, 0},
		{"stateless, no payload", stateless(nil), nil, 0},
		{"stateful full", fullSnapshot(round, st), nil, stateful | statelessClient | relay},
		{"stateless", stateless(model), nil, statelessClient | relay},
	} {
		t.Run(tc.name+"/stateful client", func(t *testing.T) {
			r := newCatchupRun(catchupDim)
			requireSnapshotOutcome(t, r, r.applySnapshot(tc.frame, tc.gens), tc.adopts&stateful != 0, model)
		})
		t.Run(tc.name+"/stateless client", func(t *testing.T) {
			r := newCatchupRun(catchupDim)
			r.rep.Manager = fl.NewPassthroughManager(4)
			requireSnapshotOutcome(t, r, r.applySnapshot(tc.frame, tc.gens), tc.adopts&statelessClient != 0, model)
		})
		t.Run(tc.name+"/relay", func(t *testing.T) {
			g, err := relayCatchUp(t, tc.frame, st.CheckCount)
			if tc.adopts&relay == 0 {
				if !errors.Is(err, errProtocol) || g != nil {
					t.Fatalf("got %v (jump pending %v), want a protocol error", err, g != nil)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g == nil || g.Round != round || !sameBits(g.Payload, model) {
				t.Fatal("the relay's pending jump is not the snapshot's round and model")
			}
		})
	}
}

// TestSnapshotManagerFlipRefused: manager state travels unframed, so the
// SnapshotMsg frame's CRC is what catches its damage. A bit flipped in any
// byte of a full snapshot's encoded state is refused as wire.ErrCorrupt
// before any state is decoded.
func TestSnapshotManagerFlipRefused(t *testing.T) {
	f := catchupFollower(catchupDim)
	st, _ := f.Capture()
	frame := wire.Append(nil, fullSnapshot(f.Round(), st))
	state := core.EncodeState(st)
	at := bytes.Index(frame, state)
	if at < 0 {
		t.Fatal("the encoded state is not in the frame verbatim")
	}
	for i := at; i < at+len(state); i++ {
		bad := slices.Clone(frame)
		bad[i] ^= 0x10
		if _, _, err := wire.Decode(bad, 0); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("flip in manager byte %d: err = %v, want wire.ErrCorrupt", i-at, err)
		}
	}
}

// requireSnapshotOutcome fails unless a client run adopted a snapshot at
// round 5 with model model (adopted), or refused it with a protocol error
// and kept its model and round.
func requireSnapshotOutcome(t *testing.T, r *clientRun, err error, adopted bool, model []float64) {
	t.Helper()
	if !adopted {
		if !errors.Is(err, errProtocol) {
			t.Fatalf("got %v, want a protocol error", err)
		}
		if r.applied != -1 || !sameBits(r.rep.X, make([]float64, len(model))) {
			t.Fatal("a refused snapshot changed the client")
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.applied != 5 || !sameBits(r.rep.X, model) {
		t.Fatalf("adopted snapshot: client at round %d, model equal %v", r.applied, sameBits(r.rep.X, model))
	}
}

// relayCatchUp joins a relay that has applied round 1 to a scripted root
// whose resume Welcome (mask generation gen) demands catch-up and which
// answers the relay's offer with frame. It returns the relay's pending
// jump and the join's error.
func relayCatchUp(t *testing.T, frame *wire.SnapshotMsg, gen int) (*GlobalMsg, error) {
	t.Helper()
	const ioT = 5 * time.Second
	peer, end := net.Pipe()
	defer closeQuietly(peer)
	rel, err := NewRelay(RelayConfig{
		Addr: "127.0.0.1:0", Upstream: "scripted-root", Name: "edge", SessionKey: "edge",
		NumClients: 1, IOTimeout: ioT,
		Dial: func(string, string) (net.Conn, error) { return end, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeQuietly(rel.ln)
	defer rel.up.drop()
	rel.applied = 1
	rootErr := make(chan error, 1)
	go func() {
		rootErr <- func() error {
			if _, err := readMsg(peer, ioT, checkpoint.MaxPayload, nil); err != nil {
				return fmt.Errorf("join: %w", err)
			}
			w := &WelcomeMsg{ClientID: 0, NumClients: 1, Rounds: 8, Dim: catchupDim,
				Init: make([]float64, catchupDim), Round: 6, Resumed: true, CatchUp: true, MaskGen: gen}
			if err := writeMsg(peer, ioT, w, nil); err != nil {
				return fmt.Errorf("welcome: %w", err)
			}
			m, err := readMsg(peer, ioT, checkpoint.MaxPayload, nil)
			if err != nil {
				return fmt.Errorf("offer: %w", err)
			}
			if o, ok := m.(*ResumeOfferMsg); !ok || o.MaskGen != -1 || o.Gens != nil {
				return fmt.Errorf("expected a snapshot-mode offer, got %#v", m)
			}
			return writeMsg(peer, ioT, frame, nil)
		}()
	}()
	_, _, err = rel.join(context.Background())
	if rerr := <-rootErr; rerr != nil {
		t.Fatalf("scripted root: %v", rerr)
	}
	return rel.pendingJump, err
}
