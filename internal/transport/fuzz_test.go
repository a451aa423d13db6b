package transport

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/wire"
)

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
	f.Add(encodeAll(
		&JoinMsg{Name: "shard-0", SessionKey: "shard-0", HaveRound: -1},
		&UpdateMsg{Round: 0, Payload: []float64{1, 2, 3}, Weight: 3, MaskHash: 42},
		&UpdateMsg{Round: 1, Payload: []float64{4, 5, 6}, Weight: 3, MaskHash: 42},
	))
	f.Add(encodeAll(&JoinMsg{Name: "reconnector", SessionKey: "k", HaveRound: 7}))
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
	f.Add(encodeAll(
		&WelcomeMsg{ClientID: 0, NumClients: 2, Rounds: 3, Dim: 3, Init: []float64{1, 2, 3}},
		&GlobalMsg{Round: 0, Payload: []float64{1, 2, 3}, Participants: 2},
		&GlobalMsg{Round: 1, Payload: []float64{4, 5, 6}, Participants: 1},
	))
	f.Add(encodeAll(&WelcomeMsg{
		ClientID: 1, NumClients: 2, Rounds: 8, Dim: 3,
		Init: []float64{1, 2, 3}, Round: 5, Resumed: true,
		Missed: []GlobalMsg{{Round: 4, Payload: []float64{7, 8, 9}, Participants: 2}},
	}))
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

// TestFuzzCorporaLive keeps the checked-in fuzz corpora on the current
// formats: every valid-* byte seed of the wire, transport and checkpoint
// fuzz targets must decode to the end without error. A format bump that
// forgets to regenerate them fails here instead of silently leaving the
// fuzzers mutating inputs that die at the version check. (Seeds with
// structured arguments — FuzzSparseDecode's — encode through the current
// format inside their target and need no check.)
func TestFuzzCorporaLive(t *testing.T) {
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
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
				continue // structured-argument seed
			}
			seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: unparseable seed: %v", p, err)
			}
			if err := corpus.decode([]byte(seed)); err != nil {
				t.Errorf("%s no longer decodes on the current format: %v", p, err)
			}
			checked++
		}
		if checked == 0 {
			t.Errorf("%s: no valid-* byte seeds found", corpus.dir)
		}
	}
}
