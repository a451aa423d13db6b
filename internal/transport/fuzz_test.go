package transport

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/fl"
	"apf/internal/wire"
)

// updateCorpora makes TestFuzzCorporaLive rewrite the fixture-backed byte
// seeds instead of checking them (`make corpora`).
var updateCorpora = flag.Bool("update", false,
	"rewrite the wire-format fuzz corpus seeds from corpusFixtures instead of checking them")

// encodeAll frames a sequence of messages into one wire stream, as a peer
// would produce on the socket.
func encodeAll(msgs ...wire.Msg) []byte {
	var buf []byte
	for _, m := range msgs {
		buf = wire.Append(buf, m)
	}
	return buf
}

// FuzzServerDecode drives the server's inbound decode path — a JoinMsg
// followed by UpdateMsgs — with arbitrary bytes, then pushes every decoded
// update through the same validation the round loop applies. Nothing here
// may panic, however malformed the stream.
func FuzzServerDecode(f *testing.F) {
	f.Add(seedJoinUpdates())
	f.Add(encodeAll(fixtureResumeJoin))
	f.Add([]byte("not a wire frame at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			t.Skip("oversized input")
		}
		m, rest, err := wire.Decode(in, joinPayloadLimit)
		if err != nil {
			return
		}
		if _, ok := m.(*JoinMsg); !ok {
			return
		}
		for i := 0; i < 16; i++ {
			m, next, err := wire.Decode(rest, modelPayloadLimit(3))
			if err != nil {
				return
			}
			rest = next
			u, ok := m.(*UpdateMsg)
			if !ok {
				continue
			}
			// The round loop's validation must tolerate anything that
			// decodes: reject or accept, never panic.
			_ = checkUpdates(u.Round, []*UpdateMsg{u})
			_ = checkUpdates(u.Round, []*UpdateMsg{nil, u, {Payload: u.Payload, Weight: 1}})
		}
	})
}

// FuzzClientDecode drives the client's inbound decode path — a WelcomeMsg
// followed by GlobalMsgs — with arbitrary bytes, then pushes the decoded
// messages through the client-side validators.
func FuzzClientDecode(f *testing.F) {
	f.Add(seedWelcomeGlobals())
	f.Add(encodeAll(fixtureResumeWelcome))
	f.Add([]byte{0xff, 0xfe, 0x00})

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
		_ = checkWelcome(w, 3)
		_ = checkWelcome(w, w.Dim)
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
	const wireDir, serverDir, clientDir = "../wire/testdata/fuzz/FuzzWireDecode/",
		"testdata/fuzz/FuzzServerDecode/", "testdata/fuzz/FuzzClientDecode/"
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
		wireDir + "two-frame-stream":     encodeAll(fixtureJoin, fixtureUpdate),
		wireDir + "unknown-version":      patched(join, 4, 0x7f),
		wireDir + "unknown-kind":         patched(join, 5, 0xee),
		wireDir + "bad-crc":              patched(global, len(global)-1, global[len(global)-1]^0xff),
		wireDir + "truncated-frame":      update[:len(update)-4],

		serverDir + "valid-join-updates": seedJoinUpdates(),
		serverDir + "valid-resume-join":  encodeAll(fixtureResumeJoin),

		clientDir + "valid-welcome-globals": seedWelcomeGlobals(),
		clientDir + "valid-resume-welcome":  encodeAll(fixtureResumeWelcome),
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
// formats. The wire-format seeds (wire and transport corpora) must be
// byte-for-byte what corpusFixtures produces today — so a format bump
// fails here until `make corpora` (this test with -update) rewrites them,
// with no version byte or CRC edited by hand — and every valid-* byte seed
// of all three corpora, checkpoint included, must decode to the end without
// error. (Seeds with structured arguments — FuzzSparseDecode's — encode
// through the current format inside their target and need no check.)
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
			_, rest, err := wire.Decode(buf, 0)
			if err != nil {
				return err
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
				_, err = checkpoint.DecodeManager(buf[:len(buf)-len(rest)])
			case kindServerSnap:
				_, err = decodeServerState(payload)
			case kindWALGlobal:
				_, err = decodeWALGlobal(payload)
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
