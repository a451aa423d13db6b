package wire

import (
	"bytes"
	"errors"
	"testing"
)

// relaySampleMsgs covers the v3 relay kinds with awkward values: empty and
// populated accumulators, negative rounds, resumable sessions.
func relaySampleMsgs() []Msg {
	return []Msg{
		&RelayJoinMsg{Name: "edge-0", SessionKey: "edge-0/key==", HaveRound: -1, Clients: 4096},
		&RelayJoinMsg{},
		&PartialUpdateMsg{
			Round: 12, Count: 31250,
			WeightLo: 0, WeightHi: 31250,
			MaskHash: 0xfeedface,
			Cols:     []uint64{0, 1, ^uint64(0), ^uint64(0) >> 1, 42, 7},
		},
		&PartialUpdateMsg{Round: -1},
	}
}

func TestRelayRoundTrip(t *testing.T) {
	for _, m := range relaySampleMsgs() {
		frame := Encode(m)
		got, rest, err := Decode(frame, 0)
		if err != nil {
			t.Fatalf("%s: Decode: %v", m.WireKind(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d bytes left after sole frame", m.WireKind(), len(rest))
		}
		sameMsg(t, m, got)
		// The streaming reader must agree.
		got2, err := ReadMsg(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("%s: ReadMsg: %v", m.WireKind(), err)
		}
		sameMsg(t, m, got2)
	}
}

// TestRelayKindsNeedV3: the relay kinds framed under a version stamp that
// predates them are refused with ErrVersion before any payload is
// interpreted.
func TestRelayKindsNeedV3(t *testing.T) {
	for _, m := range []Msg{
		&RelayJoinMsg{Name: "edge-0"},
		&PartialUpdateMsg{Round: 1, Count: 1, Cols: []uint64{1, 2}},
	} {
		for _, v := range []uint8{1, 2} {
			frame := reframe(Encode(m), v)
			if _, _, err := Decode(frame, 0); !errors.Is(err, ErrVersion) {
				t.Fatalf("%s stamped v%d: got %v, want ErrVersion", m.WireKind(), v, err)
			}
		}
	}
}

// TestHostileRelayBodies: structural invariants the aggregation path
// depends on — non-negative counts, an even accumulator word count — must
// fail decode as corruption rather than load.
func TestHostileRelayBodies(t *testing.T) {
	cases := []struct {
		name string
		m    Msg
	}{
		{"negative relay client count", &RelayJoinMsg{Name: "edge", Clients: -1}},
		{"negative partial count", &PartialUpdateMsg{Round: 1, Count: -7, Cols: []uint64{1, 2}}},
		{"odd accumulator word count", &PartialUpdateMsg{Round: 1, Count: 2, Cols: []uint64{1, 2, 3}}},
	}
	for _, tt := range cases {
		if _, _, err := Decode(Encode(tt.m), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: got %v, want ErrCorrupt", tt.name, err)
		}
	}
}

// TestHostileColsCount feeds the partial decoder a column count that
// overruns the frame; it must be rejected before allocation.
func TestHostileColsCount(t *testing.T) {
	frame := Encode(&PartialUpdateMsg{Round: 1, Count: 1, Cols: []uint64{1, 2}})
	body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
	// The Cols length prefix sits 8 bytes before the two column words.
	off := len(body) - 3*8
	for i := 0; i < 8; i++ {
		body[off+i] = 0
	}
	body[off+5] = 1 // little-endian byte 5 → 2^40 words
	if _, err := decodeBody(KindPartialUpdate, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile cols count: got %v, want ErrCorrupt", err)
	}
}

func TestRelayKindStrings(t *testing.T) {
	if got := KindRelayJoin.String(); got != "relay-join" {
		t.Fatalf("KindRelayJoin.String() = %q", got)
	}
	if got := KindPartialUpdate.String(); got != "partial-update" {
		t.Fatalf("KindPartialUpdate.String() = %q", got)
	}
}
