package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/perturb"
	"apf/internal/telemetry"
	"apf/internal/wire"
)

// updateCorpora makes TestFuzzCorporaLive rewrite the fixture-backed byte
// seeds instead of checking them (`make corpora`).
var updateCorpora = flag.Bool("update", false,
	"rewrite the fixture-backed fuzz corpus seeds from corpusFixtures instead of checking them")

// encodeAll frames a sequence of messages into one wire stream, as a peer
// would produce on the socket.
func encodeAll(msgs ...wire.Msg) []byte {
	var buf []byte
	for _, m := range msgs {
		buf = wire.Append(buf, m)
	}
	return buf
}

// FuzzServerDecode drives the server's inbound decode path with arbitrary
// bytes on both tiers — a JoinMsg followed by UpdateMsgs (flat, validator
// armed), or a RelayJoinMsg followed by PartialUpdateMsgs (root) — and hands
// every decoded contribution to the round engine's one classifier
// (roundEngine.handle on the engine tests' in-process sink, fault-tolerant so
// a refused contribution is rejected rather than fatal). The connection
// layer's checks run first, as they do on a socket: on the flat tier an
// update longer than the model (checkDenseUpdate), on the root tier a relay join
// declaring more clients than one round folds (checkDeclared) and a partial
// of the wrong dimension or counting more clients than its relay declared
// (checkPartial) are refused with a protocol error before any merge. Every
// contribution must be classified — admitted, rejected, dropped as stale, or
// refused with a typed error — each classification moving exactly one
// counter, and nothing may panic, however malformed the stream. A stream opening with a
// ResumeOfferMsg is answered from the catch-up fixtures' capture instead
// (fuzzCatchUpOffer).
func FuzzServerDecode(f *testing.F) {
	f.Add(seedJoinUpdates())
	f.Add(seedRelayJoinPartials())
	f.Add(seedArmedGates())
	f.Add(seedDenseUpdatePastDim())
	f.Add(encodeAll(fixtureResumeJoin))
	f.Add([]byte("not a wire frame at all"))
	f.Add([]byte{})
	f.Add(seedCatchUpOffer([]uint32{0}))
	f.Add(seedCatchUpOffer([]uint32{0, 0}))
	for _, seed := range seedHostileRelays() {
		f.Add(seed)
	}

	const peers, dim = 4, 3
	flatAgg, rootAgg := fl.NewAggregator(1), fl.NewAggregator(1)
	rootAgg.SetStreaming(true)
	f.Cleanup(flatAgg.Close)
	f.Cleanup(rootAgg.Close)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("oversized input")
		}
		m, rest, err := wire.Decode(in, joinPayloadLimit)
		if err != nil {
			return
		}
		e := &roundEngine{clients: peers, rounds: 1, deadline: time.Hour, minClients: 1, sink: &testSink{},
			metrics: newEngineMetrics(telemetry.New())}
		agg, limit := flatAgg, modelPayloadLimit(dim)
		declared := 0
		switch j := m.(type) {
		case *JoinMsg:
			e.validator = NewValidator(ValidatorConfig{Clients: peers, Dim: dim, MaxNormMult: 4, CosineFloor: -0.5})
		case *RelayJoinMsg:
			if err := checkDeclared(j.Clients, 0); err != nil {
				if !errors.Is(err, errProtocol) || j.Clients <= fl.MaxContributors {
					t.Fatalf("relay join declaring %d clients refused: %v", j.Clients, err)
				}
				return
			}
			declared = j.Clients
			e.partialTier = true
			agg, limit = rootAgg, partialPayloadLimit(dim)
		case *ResumeOfferMsg:
			fuzzCatchUpOffer(t, m.(*ResumeOfferMsg))
			return
		default:
			return
		}
		st := &roundState{}
		st.reset(0, peers)
		agg.Open(0, peers)
		defer agg.Discard()
		em := &e.metrics
		for i := 0; i < 16; i++ {
			m, next, err := wire.Decode(rest, limit)
			if err != nil {
				return
			}
			rest = next
			ev := event{id: i % peers, maskGen: -1}
			switch c := m.(type) {
			case *UpdateMsg:
				if err := checkDenseUpdate(c, ev.id, wire.CodecDense, dim); err != nil {
					if !errors.Is(err, errProtocol) {
						t.Fatalf("untyped refusal of an update: %v", err)
					}
					return // the connection layer retires the client
				}
				ev.upd = c
			case *PartialUpdateMsg:
				if err := checkPartial(c, dim, declared); err != nil {
					if !errors.Is(err, errProtocol) {
						t.Fatalf("untyped refusal of a partial: %v", err)
					}
					return // the connection layer retires the relay
				}
				ev.part = c
			default:
				continue
			}
			classified := em.accepted.Value() + em.rejected.Value() + em.stale.Value()
			if e.handle(ev, st, agg) != nil {
				return // a typed refusal the engine aborts the round on
			}
			if got := em.accepted.Value() + em.rejected.Value() + em.stale.Value(); got != classified+1 ||
				got != em.received.Value() {
				t.Fatalf("contribution %d: classified %d → %d, received %d", i, classified, got, em.received.Value())
			}
		}
	})
}

// fuzzCatchUpOffer answers an offer from the catch-up fixtures' capture
// (FuzzServerDecode): it is refused with a typed error — a generation
// ahead of the capture, or a generation vector of another length than the
// model's word count — or answered with one snapshot covering exactly the
// words whose generations differ from the offered ones, or every word when
// the offer carries none.
func fuzzCatchUpOffer(t *testing.T, offer *ResumeOfferMsg) {
	_, _, st := fixtureCatchUp()
	cap := &catchupCapture{round: 5, state: st}
	mode, sm, err := cap.answer(offer)
	wrongLength := offer.Gens != nil && len(offer.Gens) != len(st.WordGen)
	if err != nil {
		if !errors.Is(err, errProtocol) && !errors.Is(err, ErrFutureGeneration) {
			t.Fatalf("untyped refusal: %v", err)
		}
		if !wrongLength && offer.MaskGen <= st.CheckCount {
			t.Fatalf("refused a well-formed offer: %v", err)
		}
		return
	}
	if wrongLength {
		t.Fatalf("answered an offer of %d generations for %d words", len(offer.Gens), len(st.WordGen))
	}
	part, err := core.DecodeState(sm.Manager)
	if err != nil {
		t.Fatal(err)
	}
	if offer.Gens == nil {
		if mode != "snapshot" || part.Words != nil {
			t.Fatalf("an offer without generations got mode %q covering %v, want the full snapshot", mode, part.Words)
		}
		return
	}
	want := []int{}
	for w, g := range st.WordGen {
		if offer.Gens[w] != g {
			want = append(want, w)
		}
	}
	if mode != "sketch" || part.Words == nil || !slices.Equal(part.Words, want) {
		t.Fatalf("mode %q covering %v, want sketch covering %v", mode, part.Words, want)
	}
}

// FuzzClientDecode drives the client's inbound decode path — a WelcomeMsg
// followed by GlobalMsgs, or a catch-up WelcomeMsg followed by the
// snapshots answering the offer — with arbitrary bytes, then pushes the
// decoded messages through the client-side validators. Each snapshot is
// applied to a fresh client run with a real APF manager, once as a client
// that offered no generations and once as one that offered its own:
// whatever the frame, the run either adopts it (at its round, the manager
// holding the state the frame carries and the model its Ref) or refuses it
// unchanged.
func FuzzClientDecode(f *testing.F) {
	f.Add(seedWelcomeGlobals())
	f.Add(encodeAll(fixtureResumeWelcome))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add(seedCatchUpSnapshots())
	f.Add(seedHostileSnapshots())

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("oversized input")
		}
		m, rest, err := wire.Decode(in, checkpoint.MaxPayload)
		if err != nil {
			return
		}
		w, ok := m.(*WelcomeMsg)
		if !ok {
			return
		}
		_ = checkWelcome(w)
		if w.CatchUp {
			fuzzCatchUpSnapshots(t, rest)
			return
		}
		expect := 0
		for i := 0; i < 16; i++ {
			m, next, err := wire.Decode(rest, modelPayloadLimit(3))
			if err != nil {
				return
			}
			rest = next
			g, ok := m.(*GlobalMsg)
			if !ok {
				continue
			}
			if checkGlobal(g, expect, 3, true) == nil {
				expect++
			}
		}
	})
}

// fuzzCatchUpSnapshots applies every snapshot in a catch-up stream to
// fresh client runs of the fixtures' dimension (FuzzClientDecode).
func fuzzCatchUpSnapshots(t *testing.T, rest []byte) {
	for i := 0; i < 4; i++ {
		m, next, err := wire.Decode(rest, snapshotPayloadLimit(fixtureDim))
		if err != nil {
			return
		}
		rest = next
		sm, ok := m.(*SnapshotMsg)
		if !ok {
			continue
		}
		for _, offered := range []bool{false, true} {
			r := newCatchupRun(fixtureDim)
			mgr := r.rep.Manager.(*core.Manager)
			before := mgr.Snapshot()
			var gens []uint32
			if offered {
				gens = mgr.WordGens()
			}
			if err := r.applySnapshot(sm, gens); err != nil {
				if r.applied != -1 || !reflect.DeepEqual(mgr.Snapshot(), before) || !sameBits(r.rep.X, make([]float64, fixtureDim)) {
					t.Fatalf("refused snapshot (%v) changed the client", err)
				}
				continue
			}
			st, err := core.DecodeState(sm.Manager)
			if err != nil || len(sm.Payload) != 0 || r.applied != sm.Round || mgr.Snapshot().LastRound != st.LastRound {
				t.Fatalf("adopted snapshot for round %d: client at round %d", sm.Round, r.applied)
			}
			if got := mgr.Snapshot(); !sameBits(r.rep.X, got.Ref) {
				t.Fatal("adopted snapshot left the model apart from the manager's Ref")
			}
		}
	}
}

// The messages behind the checked-in wire-format seeds. The fuzz targets
// above add the same frames in code; the files exist so `go test` replays
// them by name and the fuzzer's cache mutates from them.
var (
	fixtureJoin          = &JoinMsg{Name: "shard-0", SessionKey: "shard-0", HaveRound: -1}
	fixtureResumeJoin    = &JoinMsg{Name: "reconnector", SessionKey: "k", HaveRound: 7}
	fixtureUpdate        = &UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 3, MaskHash: 42}
	fixtureGlobal        = &GlobalMsg{Round: 0, Payload: []float64{1, 2, 3}, Participants: 2}
	fixtureResumeWelcome = &WelcomeMsg{
		ClientID: 1, NumClients: 2, Rounds: 8, Dim: 3,
		Init: []float64{1, 2, 3}, Round: 5, Resumed: true,
		Missed: []GlobalMsg{{Round: 4, Payload: []float64{7, 8, 9}, Participants: 2}},
	}
)

// seedJoinUpdates is the server-side stream seed: a join and two rounds of
// updates.
func seedJoinUpdates() []byte {
	return encodeAll(fixtureJoin, fixtureUpdate,
		&UpdateMsg{Round: 1, Payload: []float64{4, 5, 6}, Weight: 3, MaskHash: 42})
}

// seedArmedGates is the server-side stream seed that reaches both armed
// validator gates: a join, enough aligned round-0 updates to arm the norm
// and the cosine gate, then an inverted update of the same norm, which the
// norm gate passes and the cosine gate rejects.
func seedArmedGates() []byte {
	msgs := []wire.Msg{fixtureJoin}
	for i := 0; i < max(normMinHistory, cosineMinHistory); i++ {
		msgs = append(msgs, fixtureUpdate)
	}
	return encodeAll(append(msgs, &UpdateMsg{Round: 0, Payload: []float64{-1, -2, -3}, Weight: 3, MaskHash: 42})...)
}

// seedDenseUpdatePastDim is the flat-tier stream seed the connection layer
// refuses: a join, then an update one scalar longer than the model, ahead
// of an honest one.
func seedDenseUpdatePastDim() []byte {
	return encodeAll(fixtureJoin, &UpdateMsg{Round: 0, Payload: []float64{1, 2, 3, 4}, Weight: 3, MaskHash: 42}, fixtureUpdate)
}

// relayPartial folds contribs at weight 2 into a round's relay partial.
func relayPartial(round int, contribs ...[]float64) *PartialUpdateMsg {
	var p fl.Partial
	for _, c := range contribs {
		if err := p.Fold(c, 2); err != nil {
			panic(err)
		}
	}
	return &PartialUpdateMsg{Round: round, MaskHash: 42, Sum: p}
}

// relayJoin is the fixtures' relay join, declaring clients.
func relayJoin(clients int) *RelayJoinMsg {
	return &RelayJoinMsg{Name: "edge-0", SessionKey: "edge-0", HaveRound: -1, Clients: clients}
}

// seedRelayJoinPartials is the server-side root-tier stream seed: a relay
// join and two rounds of that relay's partial sums.
func seedRelayJoinPartials() []byte {
	return encodeAll(relayJoin(2),
		relayPartial(0, []float64{1, 2, 3}, []float64{-0.5, 0.25, 8}),
		relayPartial(1, []float64{4, 5, 6}, []float64{1e-3, -7, 0}))
}

// seedHostileRelays are the root-tier stream seeds the root refuses before
// the first accumulator word changes, by fixture name: a partial whose
// column sum (2^107) no single client reaches, which the wire decoder
// refuses; a partial counting three clients from a relay that declared
// two; and a relay join declaring one client more than a round folds.
func seedHostileRelays() map[string][]byte {
	past := &PartialUpdateMsg{Round: 0, MaskHash: 42,
		Sum: fl.Partial{Count: 1, WeightHi: 1, Cols: []uint64{0, 0, 0, 1 << 43, 0, 0}}}
	honest := relayPartial(0, []float64{1, 2, 3}, []float64{-0.5, 0.25, 8}, []float64{0, 0, 1})
	return map[string][]byte{
		"hostile-partial-sum-past-count":      encodeAll(relayJoin(2), past),
		"hostile-partial-count-past-declared": encodeAll(relayJoin(2), honest),
		"hostile-relay-join-past-bound":       encodeAll(relayJoin(fl.MaxContributors+1), honest),
	}
}

// fixtureDim is the model dimension of the catch-up fixtures: one
// trailing partial mask word.
const fixtureDim = 3

// fixtureCatchUp is the server side of the catch-up fixtures: a follower's
// capture at dimension fixtureDim after rounds 0…5, framed as the full
// snapshot and as the snapshot of word 0 that answers an offer differing
// there (neither with a payload: the state's Ref is the model), and the
// capture itself.
func fixtureCatchUp() (full, words *SnapshotMsg, st *core.State) {
	f := catchupFollower(fixtureDim)
	st, _ = f.Capture()
	part, err := st.Select([]int{0})
	if err != nil {
		panic(err)
	}
	full = &SnapshotMsg{Round: f.Round(), Manager: core.EncodeState(st)}
	words = &SnapshotMsg{Round: f.Round(), Manager: core.EncodeState(part)}
	return full, words, st
}

// catchUpWelcome is the Welcome opening the catch-up fixtures'
// conversation, carrying the capture's mask generation.
func catchUpWelcome(st *core.State) *WelcomeMsg {
	return &WelcomeMsg{ClientID: 1, NumClients: 2, Rounds: 8, Dim: fixtureDim,
		Round: 5, Resumed: true, CatchUp: true, MaskGen: st.CheckCount}
}

// seedCatchUpSnapshots is the client-side catch-up stream seed: a
// catch-up welcome, then the full and the word-restricted snapshot.
func seedCatchUpSnapshots() []byte {
	full, words, st := fixtureCatchUp()
	return encodeAll(catchUpWelcome(st), full, words)
}

// seedCatchUpOffer is the server-side catch-up stream seed: a client's
// resume offer against the fixtures' capture, carrying the generation
// vector gens. A fresh client offers []uint32{0}, which differs from the
// capture in its one word; a vector of another length is a protocol
// error.
func seedCatchUpOffer(gens []uint32) []byte {
	_, _, st := fixtureCatchUp()
	return encodeAll(&ResumeOfferMsg{Round: 3, MaskGen: st.CheckCount, Gens: gens})
}

// seedHostileSnapshots is a client-side catch-up stream of snapshots that
// break the one-copy rule: the full and the word-restricted state each
// with the model repeated as a payload, and stateless frames one scalar
// short and one long. The client refuses all four.
func seedHostileSnapshots() []byte {
	full, words, st := fixtureCatchUp()
	full.Payload, words.Payload = st.Ref, st.Ref[:1]
	return encodeAll(catchUpWelcome(st), full, words,
		&SnapshotMsg{Round: full.Round, Payload: st.Ref[:fixtureDim-1]},
		&SnapshotMsg{Round: full.Round, Payload: append(st.Ref, 1)})
}

// seedWelcomeGlobals is the client-side stream seed: a fresh welcome and
// two rounds of globals.
func seedWelcomeGlobals() []byte {
	return encodeAll(
		&WelcomeMsg{ClientID: 0, NumClients: 2, Rounds: 3, Dim: 3, Init: []float64{1, 2, 3}},
		fixtureGlobal,
		&GlobalMsg{Round: 1, Payload: []float64{4, 5, 6}, Participants: 1})
}

// fixturePartial is a relay partial whose packed section mixes block
// widths: 1-byte sums, sums filling the low word (8 bytes, one of them
// negative), and a 2^40-scale sum (14 bytes) in a short tail block.
func fixturePartial() *PartialUpdateMsg {
	cols := make([]uint64, 2*(2*256+3))
	for j := 0; j < 256; j++ {
		cols[2*j] = uint64(j % 100)
	}
	for j := 256; j < 512; j++ {
		cols[2*j] = 0x1234_5678_9abc_def0 + uint64(j)
	}
	cols[2*300], cols[2*300+1] = 1<<63, ^uint64(0)
	cols[2*513], cols[2*513+1] = 7, 1<<40
	return &PartialUpdateMsg{Round: 4, MaskHash: 0xabad1dea,
		Sum: fl.Partial{Count: 3, WeightLo: 1 << 63, WeightHi: 3, Cols: cols}}
}

// fixtureManager is the client APF state behind the checkpoint corpus's
// manager seed: every field set, partial seeding, one word generation.
func fixtureManager() *core.State {
	return &core.State{
		Dim:       4,
		Ref:       []float64{1, -2.5, 0, 3.25},
		LastCheck: []float64{0.5, 0, -1, 2},
		Tracker: perturb.EMAState{
			Alpha: 0.85, E: []float64{0.1, -0.2, 0.3, 0}, A: []float64{0.4, 0.5, 0, 0.6},
			Seen: 9, Seeded: []uint64{^uint64(0), 0, 5, 0},
		},
		Period:      []float64{1, 2, 4, 8},
		UnfreezeAt:  []int{3, 0, 12, 7},
		RandomUntil: []int{0, 0, 15, 0},
		Threshold:   0.3, CheckCount: 4, Initialized: true, InitRound: 1, LastRound: 11,
		WordGen: []uint32{12},
	}
}

// seedSnapshotWAL is the checkpoint corpus's stream seed: a coordinator
// snapshot after round 0 (validator armed), then the WAL record that
// commits round 1, stamped with the snapshot's generation — the snapshot
// file and the log a checkpoint.Store writes for them, back to back.
func seedSnapshotWAL(t *testing.T) []byte {
	st := &serverState{
		NumClients: 2, Rounds: 4, Init: []float64{1, 2},
		Keys: []string{"k0", "k1"}, Names: []string{"c0", "c1"},
		History: []GlobalMsg{{Round: 0, Payload: []float64{3, 4}, Participants: 2}},
		Validator: &validatorState{Strikes: []int{0, 1}, Quar: []bool{false, false}, Norms: []float64{1.5},
			Ref: []float64{0.5, -0.5}, RefCount: 1, QuarRound: []int{-1, -1}},
		ShadowRound: -1,
	}
	commit := encodeWALGlobal(new(checkpoint.Writer), &GlobalMsg{Round: 1, Payload: []float64{5, 6}, Participants: 2})
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.WriteSnapshot(1, encodeServerState(new(checkpoint.Writer), st)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Append(commit); err != nil {
		t.Fatal(err)
	}
	var seed []byte
	for _, name := range []string{"snap-00000001.ckpt", "wal-00000001.log"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		seed = append(seed, b...)
	}
	return seed
}

// corpusFixtures maps every fixture-backed seed file (relative to this
// package) to the bytes the current format produces for it. The damaged
// seeds are derived from valid frames, so a format bump moves them too and
// each keeps dying at the defect it is named for rather than at the
// version check.
func corpusFixtures(t *testing.T) map[string][]byte {
	join := encodeAll(fixtureJoin)
	update := encodeAll(fixtureUpdate)
	global := encodeAll(fixtureGlobal)
	patched := func(frame []byte, at int, b byte) []byte {
		out := append([]byte(nil), frame...)
		out[at] = b
		return out
	}
	// resealed repairs the checksum of a patched frame: a decoder reads
	// the kind only from a frame whose checksum holds.
	resealed := func(frame []byte) []byte {
		end := len(frame) - checkpoint.TrailerLen
		binary.LittleEndian.PutUint32(frame[end:], crc32.ChecksumIEEE(frame[:end]))
		return frame
	}
	fullSnap, wordSnap, _ := fixtureCatchUp()
	const wireDir, serverDir, clientDir, checkpointDir = "../wire/testdata/fuzz/FuzzWireDecode/",
		"testdata/fuzz/FuzzServerDecode/", "testdata/fuzz/FuzzClientDecode/",
		"../checkpoint/testdata/fuzz/FuzzCheckpointDecode/"
	fixtures := map[string][]byte{
		wireDir + "valid-join":           join,
		wireDir + "valid-update":         update,
		wireDir + "valid-global":         global,
		wireDir + "valid-resume-welcome": encodeAll(fixtureResumeWelcome),
		wireDir + "valid-sparse-update": encodeAll(&SparseUpdateMsg{Round: 3, Weight: 30, MaskHash: 0xfeedface,
			MaskGen: 4, Dim: 6, Enc: wire.EncF64, Values: []float64{1, -2.5}}),
		wireDir + "valid-sparse-global": encodeAll(&SparseGlobalMsg{Round: 7, Participants: 2, MaskHash: 0x9e3779b97f4a7c15,
			MaskGen: 2, Dim: 5, Enc: wire.EncF16, Values: []float64{1, math.Copysign(math.NaN(), -1), math.NaN()}}),
		wireDir + "valid-relay-join": encodeAll(&RelayJoinMsg{Name: "edge-0", SessionKey: "edge-0",
			HaveRound: -1, Clients: 128}),
		wireDir + "valid-partial-update": encodeAll(fixturePartial()),
		wireDir + "valid-resume-offer":   encodeAll(&ResumeOfferMsg{Round: 5, MaskGen: 2, Gens: []uint32{3, 0, 7}}),
		wireDir + "valid-snapshot":       encodeAll(fullSnap),
		wireDir + "valid-snapshot-words": encodeAll(wordSnap),
		wireDir + "two-frame-stream":     encodeAll(fixtureJoin, fixtureUpdate),
		wireDir + "unknown-version":      patched(join, 4, 0x7f),
		wireDir + "unknown-kind":         resealed(patched(join, 5, 0xee)),
		wireDir + "retired-sketch-kind":  resealed(patched(join, 5, 10)),
		wireDir + "bad-crc":              patched(global, len(global)-1, global[len(global)-1]^0xff),
		wireDir + "truncated-frame":      update[:len(update)-4],

		serverDir + "valid-join-updates":            seedJoinUpdates(),
		serverDir + "valid-join-armed-gates":        seedArmedGates(),
		serverDir + "valid-relay-join-partials":     seedRelayJoinPartials(),
		serverDir + "valid-resume-join":             encodeAll(fixtureResumeJoin),
		serverDir + "valid-catchup-offer":           seedCatchUpOffer([]uint32{0}),
		serverDir + "hostile-offer-gens-length":     seedCatchUpOffer([]uint32{0, 0}),
		serverDir + "hostile-dense-update-past-dim": seedDenseUpdatePastDim(),

		clientDir + "valid-welcome-globals":   seedWelcomeGlobals(),
		clientDir + "valid-resume-welcome":    encodeAll(fixtureResumeWelcome),
		clientDir + "valid-catchup-snapshots": seedCatchUpSnapshots(),

		checkpointDir + "valid-manager":             core.EncodeState(fixtureManager()),
		checkpointDir + "valid-snapshot-wal-stream": seedSnapshotWAL(t),
	}
	for name, seed := range seedHostileRelays() {
		fixtures[serverDir+name] = seed
	}
	return fixtures
}

// readSeed parses a one-argument []byte corpus file; ok is false for a
// structured-argument seed.
func readSeed(t *testing.T, path string) (seed []byte, ok bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (`make corpora` rewrites the fixture-backed seeds)", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		return nil, false
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: unparseable seed: %v", path, err)
	}
	return []byte(s), true
}

// TestFuzzCorporaLive keeps the checked-in fuzz corpora on the current
// formats. The fixture-backed seeds (wire, transport and checkpoint
// corpora) must be byte-for-byte what corpusFixtures produces today — so a
// wire or checkpoint format bump fails here until `make corpora` (this test
// with -update) rewrites them, with no version byte or CRC edited by hand —
// and every valid-* byte seed of all three corpora must decode to the end
// without error. (Seeds with structured arguments — FuzzSparseDecode's —
// encode through the current format inside their target and need no
// check.)
func TestFuzzCorporaLive(t *testing.T) {
	for path, want := range corpusFixtures(t) {
		if *updateCorpora {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", want)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, _ := readSeed(t, path); !bytes.Equal(got, want) {
			t.Errorf("%s is not what the current format encodes for its fixture; run `make corpora`", path)
		}
	}

	wireStream := func(buf []byte) error {
		for len(buf) > 0 {
			m, rest, err := wire.Decode(buf, 0)
			if err != nil {
				return err
			}
			if sm, ok := m.(*SnapshotMsg); ok && len(sm.Manager) > 0 {
				if _, err := core.DecodeState(sm.Manager); err != nil {
					return err
				}
			}
			buf = rest
		}
		return nil
	}
	// A snapshot frame, then WAL records: each a generation stamp and a
	// commit.
	checkpointStream := func(buf []byte) error {
		for first := true; len(buf) > 0; first = false {
			_, payload, rest, err := checkpoint.ReadFrame(buf, 0)
			if err != nil {
				return err
			}
			switch {
			case first:
				_, err = decodeServerState(payload)
			case len(payload) < 8:
				err = fmt.Errorf("%d-byte record has no generation stamp", len(payload))
			default:
				_, err = decodeWALGlobal(payload[8:])
			}
			if err != nil {
				return err
			}
			buf = rest
		}
		return nil
	}
	for _, corpus := range []struct {
		dir    string
		decode func([]byte) error
	}{
		{"../wire/testdata/fuzz", wireStream},
		{"testdata/fuzz", wireStream},
		{"../checkpoint/testdata/fuzz", checkpointStream},
	} {
		paths, err := filepath.Glob(filepath.Join(corpus.dir, "*", "valid-*"))
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, p := range paths {
			seed, ok := readSeed(t, p)
			if !ok {
				continue // structured-argument seed
			}
			decode := corpus.decode
			if filepath.Base(p) == "valid-manager" {
				// The manager state is unframed: its carriers frame it.
				decode = func(buf []byte) error { _, err := core.DecodeState(buf); return err }
			}
			if err := decode(seed); err != nil {
				t.Errorf("%s no longer decodes on the current format: %v", p, err)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no valid-* byte seeds found", corpus.dir)
		}
	}
}
