package transport

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/fl"
	"apf/internal/perturb"
	"apf/internal/recon"
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
// a refused contribution is rejected rather than fatal). Every contribution
// must be classified — admitted, rejected, dropped as stale, or refused with
// a typed error — each classification moving exactly one counter, and
// nothing may panic, however malformed the stream.
func FuzzServerDecode(f *testing.F) {
	f.Add(seedJoinUpdates())
	f.Add(seedRelayJoinPartials())
	f.Add(seedArmedGates())
	f.Add(encodeAll(fixtureResumeJoin))
	f.Add([]byte("not a wire frame at all"))
	f.Add([]byte{})

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
		switch m.(type) {
		case *JoinMsg:
			e.validator = NewValidator(ValidatorConfig{Clients: peers, Dim: dim, MaxNormMult: 4, CosineFloor: -0.5})
		case *RelayJoinMsg:
			e.partialTier = true
			agg, limit = rootAgg, partialPayloadLimit(dim)
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
				ev.upd = c
			case *PartialUpdateMsg:
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

// FuzzClientDecode drives the client's inbound decode path — a WelcomeMsg
// followed by GlobalMsgs, or a catch-up WelcomeMsg followed by the
// snapshots closing the conversation — with arbitrary bytes, then pushes
// the decoded messages through the client-side validators. Each snapshot
// is applied to a fresh client run with a real APF manager, once as a
// client that sent no word list and once as one that asked for word 0:
// whatever the frame, the run either adopts it (at its round, the manager
// holding the state the frame carries) or refuses it unchanged.
func FuzzClientDecode(f *testing.F) {
	f.Add(seedWelcomeGlobals())
	f.Add(encodeAll(fixtureResumeWelcome))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add(seedCatchUpSnapshots())

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("oversized input")
		}
		m, rest, err := wire.Decode(in, wire.MaxPayload)
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
		for _, words := range [][]int{nil, {0}} {
			r := newCatchupRun(fixtureDim)
			mgr := r.rep.Manager.(*core.Manager)
			before := mgr.Snapshot()
			if err := r.applySnapshot(sm, words); err != nil {
				if r.applied != -1 || !reflect.DeepEqual(mgr.Snapshot(), before) {
					t.Fatalf("refused snapshot (%v) changed the client", err)
				}
				continue
			}
			st, err := core.DecodeState(sm.Manager)
			if err != nil || r.applied != sm.Round || mgr.Snapshot().LastRound != st.LastRound {
				t.Fatalf("adopted snapshot for round %d: client at round %d", sm.Round, r.applied)
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

// seedRelayJoinPartials is the server-side root-tier stream seed: a relay
// join and two rounds of that relay's partial sums.
func seedRelayJoinPartials() []byte {
	partial := func(round int, contribs ...[]float64) *PartialUpdateMsg {
		var p fl.Partial
		for _, c := range contribs {
			if err := p.Fold(c, 2); err != nil {
				panic(err)
			}
		}
		return &PartialUpdateMsg{Round: round, MaskHash: 42, Sum: p}
	}
	return encodeAll(&RelayJoinMsg{Name: "edge-0", SessionKey: "edge-0", HaveRound: -1, Clients: 2},
		partial(0, []float64{1, 2, 3}, []float64{-0.5, 0.25, 8}),
		partial(1, []float64{4, 5, 6}, []float64{1e-3, -7, 0}))
}

// fixtureDim is the model dimension of the catch-up fixtures: one
// trailing partial mask word.
const fixtureDim = 3

// fixtureCatchUp is the server side of the catch-up fixtures: a follower's
// capture at dimension fixtureDim after rounds 0…5, framed as the full
// snapshot and as the snapshot of word 0 that closes a decoded sketch.
func fixtureCatchUp() (full, words *SnapshotMsg) {
	f := catchupFollower(fixtureDim)
	x, st, _ := f.Capture()
	part, err := st.Select([]int{0})
	if err != nil {
		panic(err)
	}
	full = &SnapshotMsg{Round: f.Round(), MaskGen: f.MaskGeneration(), Payload: x, Manager: core.EncodeState(st)}
	words = &SnapshotMsg{Round: f.Round(), MaskGen: f.MaskGeneration(), Payload: x, Manager: core.EncodeState(part)}
	return full, words
}

// seedCatchUpSnapshots is the client-side catch-up stream seed: a
// catch-up welcome, then the full and the word-restricted snapshot.
func seedCatchUpSnapshots() []byte {
	full, words := fixtureCatchUp()
	return encodeAll(&WelcomeMsg{ClientID: 1, NumClients: 2, Rounds: 8, Dim: fixtureDim,
		Round: full.Round, Resumed: true, CatchUp: true, MaskGen: full.MaskGen}, full, words)
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
// commits round 1, stamped with the snapshot's generation as
// checkpoint.Store writes it.
func seedSnapshotWAL() []byte {
	st := &serverState{
		NumClients: 2, Rounds: 4, Init: []float64{1, 2},
		Keys: []string{"k0", "k1"}, Names: []string{"c0", "c1"},
		History: []GlobalMsg{{Round: 0, Payload: []float64{3, 4}, Participants: 2}},
		Validator: &validatorState{Strikes: []int{0, 1}, Quar: []bool{false, false}, Norms: []float64{1.5},
			Ref: []float64{0.5, -0.5}, RefCount: 1, QuarRound: []int{-1, -1}},
		ShadowRound: -1,
	}
	commit := encodeWALGlobal(new(checkpoint.Writer), &GlobalMsg{Round: 1, Payload: []float64{5, 6}, Participants: 2})
	return checkpoint.AppendRecord(checkpoint.AppendFrame(nil, kindServerSnap, encodeServerState(st)), 1, kindWALGlobal, commit)
}

// corpusFixtures maps every fixture-backed seed file (relative to this
// package) to the bytes the current format produces for it. The damaged
// seeds are derived from valid frames, so a format bump moves them too and
// each keeps dying at the defect it is named for rather than at the
// version check.
func corpusFixtures() map[string][]byte {
	join := encodeAll(fixtureJoin)
	update := encodeAll(fixtureUpdate)
	global := encodeAll(fixtureGlobal)
	patched := func(frame []byte, at int, b byte) []byte {
		out := append([]byte(nil), frame...)
		out[at] = b
		return out
	}
	fullSnap, wordSnap := fixtureCatchUp()
	const wireDir, serverDir, clientDir, checkpointDir = "../wire/testdata/fuzz/FuzzWireDecode/",
		"testdata/fuzz/FuzzServerDecode/", "testdata/fuzz/FuzzClientDecode/",
		"../checkpoint/testdata/fuzz/FuzzCheckpointDecode/"
	return map[string][]byte{
		wireDir + "valid-join":           join,
		wireDir + "valid-update":         update,
		wireDir + "valid-global":         global,
		wireDir + "valid-resume-welcome": encodeAll(fixtureResumeWelcome),
		wireDir + "valid-sparse-update": encodeAll(&SparseUpdateMsg{Round: 3, Weight: 30, MaskHash: 0xfeedface,
			MaskGen: 4, Dim: 6, Enc: wire.EncF64, Values: []float64{1, -2.5}}),
		wireDir + "valid-sparse-global": encodeAll(&SparseGlobalMsg{Round: 7, Participants: 2, MaskHash: 0x9e3779b97f4a7c15,
			MaskGen: 2, Dim: 5, Enc: wire.EncF16, Q: []uint16{0x3c00, 0xfc01, 0x7e33}}),
		wireDir + "valid-relay-join": encodeAll(&RelayJoinMsg{Name: "edge-0", SessionKey: "edge-0",
			HaveRound: -1, Clients: 128}),
		wireDir + "valid-partial-update": encodeAll(fixturePartial()),
		wireDir + "valid-resume-offer":   encodeAll(&ResumeOfferMsg{Round: 5, MaskGen: 2, Words: []int{0, 3, 7}}),
		wireDir + "valid-sketch": encodeAll(&SketchMsg{Round: 8, MaskGen: 2, Start: 16, Cells: []recon.Cell{
			{Sum: recon.PackWordGen(3, 9), Hash: 0xfeedface, Count: 1}, {Sum: 0, Hash: 0, Count: -2}}}),
		wireDir + "valid-snapshot":       encodeAll(fullSnap),
		wireDir + "valid-snapshot-words": encodeAll(wordSnap),
		wireDir + "two-frame-stream":     encodeAll(fixtureJoin, fixtureUpdate),
		wireDir + "unknown-version":      patched(join, 4, 0x7f),
		wireDir + "unknown-kind":         patched(join, 5, 0xee),
		wireDir + "bad-crc":              patched(global, len(global)-1, global[len(global)-1]^0xff),
		wireDir + "truncated-frame":      update[:len(update)-4],

		serverDir + "valid-join-updates":        seedJoinUpdates(),
		serverDir + "valid-join-armed-gates":    seedArmedGates(),
		serverDir + "valid-relay-join-partials": seedRelayJoinPartials(),
		serverDir + "valid-resume-join":         encodeAll(fixtureResumeJoin),

		clientDir + "valid-welcome-globals":   seedWelcomeGlobals(),
		clientDir + "valid-resume-welcome":    encodeAll(fixtureResumeWelcome),
		clientDir + "valid-catchup-snapshots": seedCatchUpSnapshots(),

		checkpointDir + "valid-manager":             core.EncodeState(fixtureManager()),
		checkpointDir + "valid-snapshot-wal-stream": seedSnapshotWAL(),
	}
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
	for path, want := range corpusFixtures() {
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
	checkpointStream := func(buf []byte) error {
		for len(buf) > 0 {
			kind, payload, rest, err := checkpoint.ReadFrame(buf)
			if err != nil {
				return err
			}
			switch kind {
			case checkpoint.KindManager:
				_, err = core.DecodeState(buf[:len(buf)-len(rest)])
			case kindServerSnap:
				_, err = decodeServerState(payload)
			case kindWALGlobal:
				// A WAL record: the body follows the generation stamp.
				if _, _, body, _, rerr := checkpoint.ReadRecord(buf); rerr != nil {
					err = rerr
				} else {
					_, err = decodeWALGlobal(body)
				}
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
			if err := corpus.decode(seed); err != nil {
				t.Errorf("%s no longer decodes on the current format: %v", p, err)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no valid-* byte seeds found", corpus.dir)
		}
	}
}
