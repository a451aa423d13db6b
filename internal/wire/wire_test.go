package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"apf/internal/recon"
)

// sampleMsgs covers all four kinds with awkward values: NaN and ±Inf
// payloads, empty slices, a nested missed-payload list, negative ints.
func sampleMsgs() []Msg {
	return []Msg{
		&JoinMsg{Name: "shard-0", SessionKey: "key/with=padding==", HaveRound: -1},
		&JoinMsg{},
		&WelcomeMsg{
			ClientID:   3,
			NumClients: 8,
			Rounds:     40,
			Dim:        4,
			Init:       []float64{0, math.NaN(), math.Inf(1), -0.0},
			Round:      7,
			Resumed:    true,
			Missed: []GlobalMsg{
				{Round: 5, Payload: []float64{1, 2, 3, 4}, Participants: 8},
				{Round: 6, Payload: []float64{math.Inf(-1)}, Participants: 2},
			},
		},
		&WelcomeMsg{Dim: 1, Init: []float64{42}},
		&UpdateMsg{Round: 9, Payload: []float64{1.5, math.NaN()}, Weight: 0.125, MaskHash: 0xdeadbeefcafe},
		&UpdateMsg{},
		&GlobalMsg{Round: 11, Payload: []float64{math.Copysign(0, -1), 7}, Participants: 32},
		&GlobalMsg{},
		&WelcomeMsg{ClientID: 2, NumClients: 4, Rounds: 90, Dim: 2,
			Init: []float64{1, 2}, Round: 61, Resumed: true, CatchUp: true, MaskGen: 17},
		&ResumeOfferMsg{Round: 60, MaskGen: 17},
		&ResumeOfferMsg{Round: 60, MaskGen: 17, NeedMore: true},
		&ResumeOfferMsg{Round: 60, MaskGen: 17, Words: []int{0, 5, 63}},
		&ResumeOfferMsg{Round: 60, MaskGen: 17, Words: []int{}},
		&ResumeOfferMsg{Round: -1, MaskGen: -1},
		&SketchMsg{Round: 61, MaskGen: 17, Start: 128, Cells: []recon.Cell{
			{Sum: recon.PackWordGen(5, 18), Hash: 0xfeedface, Count: 1},
			{Sum: 0, Hash: 0, Count: -3},
		}},
		&SketchMsg{Round: 61, MaskGen: 17},
		&SnapshotMsg{Round: 61, MaskGen: 17,
			Payload: []float64{math.NaN(), math.Inf(-1), -0.0},
			Manager: []byte{0x00, 0xff, 0x7f}},
		&SnapshotMsg{Round: 0, MaskGen: -1, Payload: []float64{4}},
		&SnapshotMsg{Round: 61, MaskGen: 17, Manager: []byte{0x43}},
	}
}

// sameMsg compares messages bit-exactly (NaN == NaN, -0 != +0).
func sameMsg(t *testing.T, a, b Msg) {
	t.Helper()
	var wa, wb [2][]byte
	wa[0] = Encode(a)
	wb[0] = Encode(b)
	if !bytes.Equal(wa[0], wb[0]) {
		t.Fatalf("messages differ:\n got %#v\nwant %#v", b, a)
	}
	if reflect.TypeOf(a) != reflect.TypeOf(b) {
		t.Fatalf("type mismatch: %T vs %T", a, b)
	}
}

func TestRoundTripDecode(t *testing.T) {
	for _, m := range sampleMsgs() {
		frame := Encode(m)
		got, rest, err := Decode(frame, 0)
		if err != nil {
			t.Fatalf("%s: Decode: %v", m.WireKind(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d bytes left after sole frame", m.WireKind(), len(rest))
		}
		sameMsg(t, m, got)
	}
}

func TestRoundTripStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs()
	for _, m := range msgs {
		buf.Write(Encode(m))
	}
	var fr FrameReader
	for _, want := range msgs {
		got, err := fr.Read(&buf, 0)
		if err != nil {
			t.Fatalf("%s: FrameReader: %v", want.WireKind(), err)
		}
		sameMsg(t, want, got)
	}
	if _, err := fr.Read(&buf, 0); err != io.EOF {
		t.Fatalf("EOF after last frame: got %v", err)
	}
}

// TestCanonicalEncoding pins the property fuzzing relies on: re-encoding a
// decoded message reproduces the original frame byte for byte.
func TestCanonicalEncoding(t *testing.T) {
	var stream []byte
	for _, m := range sampleMsgs() {
		stream = Append(stream, m)
	}
	rest := stream
	var rebuilt []byte
	for len(rest) > 0 {
		m, tail, err := Decode(rest, 0)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		rebuilt = Append(rebuilt, m)
		rest = tail
	}
	if !bytes.Equal(stream, rebuilt) {
		t.Fatal("re-encoded stream differs from original")
	}
}

func TestDecodeEmptyIsEOF(t *testing.T) {
	if _, _, err := Decode(nil, 0); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

func TestTruncatedFrames(t *testing.T) {
	frame := Encode(&UpdateMsg{Round: 3, Payload: []float64{1, 2, 3}, Weight: 1})
	for n := 1; n < len(frame); n++ {
		if _, _, err := Decode(frame[:n], 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode of %d/%d bytes: got %v, want ErrCorrupt", n, len(frame), err)
		}
		if _, err := new(FrameReader).Read(bytes.NewReader(frame[:n]), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("FrameReader on %d/%d bytes: got %v, want ErrCorrupt", n, len(frame), err)
		}
	}
}

func TestBadCRC(t *testing.T) {
	frame := Encode(&GlobalMsg{Round: 1, Payload: []float64{9}, Participants: 4})
	// Flip one bit in every byte position in turn; all must be detected as
	// one of the typed failures (header damage may surface as bad
	// magic/version/kind/length instead of a checksum mismatch).
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x10
		_, _, err := Decode(bad, 0)
		if err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) &&
			!errors.Is(err, ErrUnknownKind) && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("bit flip at byte %d: untyped error %v", i, err)
		}
	}
}

func TestUnknownVersion(t *testing.T) {
	frame := Encode(&JoinMsg{Name: "v2-client"})
	frame[4] = Version + 1
	if _, _, err := Decode(frame, 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
	if _, err := new(FrameReader).Read(bytes.NewReader(frame), 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("FrameReader: got %v, want ErrVersion", err)
	}
}

func TestUnknownKind(t *testing.T) {
	frame := Encode(&JoinMsg{Name: "x"})
	frame[5] = 0x7f
	if _, _, err := Decode(frame, 0); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("got %v, want ErrUnknownKind", err)
	}
}

func TestPayloadOverLimit(t *testing.T) {
	frame := Encode(&UpdateMsg{Round: 1, Payload: make([]float64, 64), Weight: 1})
	if _, _, err := Decode(frame, 32); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Decode under tight limit: got %v, want ErrTooLarge", err)
	}
	if _, err := new(FrameReader).Read(bytes.NewReader(frame), 32); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("FrameReader under tight limit: got %v, want ErrTooLarge", err)
	}
	// The same frame decodes under the default limit.
	if _, _, err := Decode(frame, 0); err != nil {
		t.Fatalf("Decode under default limit: %v", err)
	}
}

// TestHostileMissedCount feeds the Welcome decoder a body whose missed
// count claims 2^40 entries backed by no bytes; the count must be rejected
// before any allocation happens.
func TestHostileMissedCount(t *testing.T) {
	var m WelcomeMsg
	frame := Encode(&m)
	body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
	// The missed count (0) sits just before the 11-byte codec/catch-up
	// tail; overwrite it with 1<<40.
	body[len(body)-11-3] = 1 // little-endian byte 5 → 2^40
	if _, err := decodeBody(KindWelcome, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile missed count: got %v, want ErrCorrupt", err)
	}
}

func TestTrailingGarbageInBody(t *testing.T) {
	good := Encode(&JoinMsg{Name: "a"})
	// Rebuild the frame with one extra payload byte and a fixed-up CRC: the
	// body decoder must reject the leftovers.
	body := append([]byte(nil), good[headerLen:len(good)-trailerLen]...)
	body = append(body, 0)
	if _, err := decodeBody(KindJoin, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte in body: got %v, want ErrCorrupt", err)
	}
}

// TestHostileCatchUpCounts feeds the catch-up decoders bodies whose final
// count — sketch cells, offered words, snapshot manager bytes — claims
// 2^40 entries backed by no bytes; each must reject before allocating.
func TestHostileCatchUpCounts(t *testing.T) {
	for _, m := range []Msg{&SketchMsg{Round: 1, MaskGen: 1},
		&ResumeOfferMsg{Round: 1, MaskGen: 1, Words: []int{}}, &SnapshotMsg{Round: 1, MaskGen: 1}} {
		frame := Encode(m)
		body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
		// The final 8 bytes are the element count (0); overwrite with 2^40.
		for i := len(body) - 8; i < len(body); i++ {
			body[i] = 0
		}
		body[len(body)-3] = 1
		if _, err := decodeBody(m.WireKind(), body); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: hostile count: got %v, want ErrCorrupt", m.WireKind(), err)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindJoin: "join", KindWelcome: "welcome", KindUpdate: "update", KindGlobal: "global",
		KindResumeOffer: "resume-offer", KindSketch: "sketch", KindSnapshot: "snapshot",
		Kind(12): "Kind(12)", Kind(99): "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}
