package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"

	"apf/internal/quantize"
)

// reframe patches the version byte of an encoded frame and repairs the
// CRC, producing a structurally intact frame with a lying version stamp.
func reframe(frame []byte, version uint8) []byte {
	f := append([]byte(nil), frame...)
	f[4] = version
	sum := crc32.ChecksumIEEE(f[:len(f)-trailerLen])
	binary.LittleEndian.PutUint32(f[len(f)-trailerLen:], sum)
	return f
}

// sparseSampleMsgs covers both sparse kinds under both encodings.
func sparseSampleMsgs() []Msg {
	return []Msg{
		&SparseUpdateMsg{Round: 5, Weight: 30, MaskHash: 0xdeadbeef, MaskGen: 2, Dim: 8,
			Enc: EncF64, Values: []float64{1.5, -2.25, math.Inf(1), 0}},
		&SparseUpdateMsg{Round: 0, Weight: 1, MaskHash: 1, MaskGen: -1, Dim: 3,
			Enc: EncF16, Q: []uint16{0x3c00, 0xfbff}},
		&SparseGlobalMsg{Round: 9, Participants: 4, MaskHash: 7, MaskGen: 0, Dim: 6,
			Enc: EncF64, Values: []float64{-0.5, 3e300}},
		&SparseGlobalMsg{Round: 12, Participants: 2, MaskHash: 99, MaskGen: 3, Dim: 4,
			// Non-canonical NaN patterns: the raw uint16 column must survive
			// a round trip untouched even though no float64 conversion could
			// reproduce these bits.
			Enc: EncF16, Q: []uint16{0x7e33, 0xfe01, 0x7c01}},
	}
}

func TestSparseRoundTrip(t *testing.T) {
	for _, m := range sparseSampleMsgs() {
		frame := Encode(m)
		got, rest, err := Decode(frame, 0)
		if err != nil {
			t.Fatalf("decode %s: %v", m.WireKind(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip mutated %s:\n got  %+v\n want %+v", m.WireKind(), got, m)
		}
		if !bytes.Equal(Encode(got), frame) {
			t.Fatalf("%s re-encode not byte-identical", m.WireKind())
		}
	}
}

// TestVersionRange pins the one-version rule: every message kind framed
// under any other stamp — each former protocol version included — is
// refused at the header with ErrVersion, before any payload is touched,
// by both the in-memory and the streaming decoder. The sweep must hold a
// sample of every kind this build names, so a new kind cannot be added
// without one.
func TestVersionRange(t *testing.T) {
	msgs := append(append(sampleMsgs(), relaySampleMsgs()...), sparseSampleMsgs()...)
	swept := map[Kind]bool{}
	for _, m := range msgs {
		swept[m.WireKind()] = true
		good := Encode(m)
		if good[4] != Version {
			t.Fatalf("%s stamped version %d, want %d", m.WireKind(), good[4], Version)
		}
		for _, v := range []uint8{0, 1, 2, 3, 4, 5, Version + 1, 200} {
			bad := reframe(good, v)
			if _, _, err := Decode(bad, 0); !errors.Is(err, ErrVersion) {
				t.Errorf("%s stamped v%d: Decode got %v, want ErrVersion", m.WireKind(), v, err)
			}
			if _, err := ReadMsg(bytes.NewReader(bad), 0); !errors.Is(err, ErrVersion) {
				t.Errorf("%s stamped v%d: ReadMsg got %v, want ErrVersion", m.WireKind(), v, err)
			}
		}
	}
	// Kinds are numbered densely from KindJoin; the first value String()
	// does not name ends the enumeration.
	k := KindJoin
	for ; !strings.HasPrefix(k.String(), "Kind("); k++ {
		if !swept[k] {
			t.Errorf("the sweep has no %s sample", k)
		}
	}
	if k <= KindDelta {
		t.Fatalf("kind enumeration stopped at %d, before KindDelta", k)
	}
}

// TestFrameLengthClosedForm pins the payload frames' size as an exact
// function of the scalar count n: 38 + 8n for GlobalMsg, 46 + 8n for
// UpdateMsg, and 64 + 8n (lossless) or 64 + 2n (binary16) for both sparse
// kinds — no per-scalar index, no padding, no metadata that grows with the
// payload. A sparse frame therefore shrinks in exact proportion to the
// frozen fraction; the sweep below states that at every fraction.
func TestFrameLengthClosedForm(t *testing.T) {
	check := func(dim, n int) {
		t.Helper()
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 0.25 * float64(i%9-4)
		}
		type sized struct {
			m    Msg
			want int
		}
		frames := []sized{
			{&GlobalMsg{Round: 3, Participants: 2, Payload: vals}, 38 + 8*n},
			{&UpdateMsg{Round: 3, Weight: 30, MaskHash: 7, Payload: vals}, 46 + 8*n},
		}
		for enc, width := range map[Enc]int{EncF64: 8, EncF16: 2} {
			up := &SparseUpdateMsg{Round: 3, Weight: 30, MaskHash: 7, MaskGen: 4, Dim: dim, Enc: enc}
			up.Values, up.Q = PackSparse(enc, vals)
			down := &SparseGlobalMsg{Round: 3, Participants: 2, MaskHash: 7, MaskGen: 4, Dim: dim, Enc: enc}
			down.Values, down.Q = PackSparse(enc, vals)
			frames = append(frames, sized{up, 64 + width*n}, sized{down, 64 + width*n})
		}
		for _, f := range frames {
			if got := len(Encode(f.m)); got != f.want {
				t.Errorf("%s dim %d, %d scalars: frame is %d bytes, closed form says %d", f.m.WireKind(), dim, n, got, f.want)
			}
		}
	}
	for _, n := range []int{0, 1, 7, 1000} {
		check(1000, n)
	}
	const dim = 10_000
	for _, frozen := range []float64{0, 0.5, 0.9, 0.95, 0.99} {
		check(dim, dim-int(frozen*dim))
	}
}

func TestHostileSparseBodies(t *testing.T) {
	encode := func(m *SparseUpdateMsg) []byte { return Encode(m) }
	cases := []struct {
		name  string
		frame []byte
	}{
		{"zero dim", encode(&SparseUpdateMsg{Dim: 0})},
		{"negative dim", encode(&SparseUpdateMsg{Dim: -4, Values: []float64{1}})},
		{"scalars exceed dim", encode(&SparseUpdateMsg{Dim: 2, Values: []float64{1, 2, 3}})},
		{"generation below -1", encode(&SparseUpdateMsg{Dim: 2, MaskGen: -2, Values: []float64{1}})},
		{"unknown encoding", encode(&SparseUpdateMsg{Dim: 2, Enc: Enc(7)})},
	}
	for _, tt := range cases {
		if _, _, err := Decode(tt.frame, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tt.name, err)
		}
	}
}

// TestHostileHalfCount claims 2^40 binary16 scalars backed by no bytes;
// the count must be rejected before allocation.
func TestHostileHalfCount(t *testing.T) {
	m := &SparseUpdateMsg{Dim: 1 << 41, Enc: EncF16}
	frame := Encode(m)
	body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
	// The final 8 bytes are the scalar count (0); overwrite with 1<<40.
	for i := len(body) - 8; i < len(body); i++ {
		body[i] = 0
	}
	body[len(body)-3] = 1
	if _, err := decodeBody(KindSparseUpdate, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile half count: got %v, want ErrCorrupt", err)
	}
}

func TestNegotiateCodec(t *testing.T) {
	cases := []struct {
		max  Codec
		caps uint64
		want Codec
	}{
		{CodecDense, 0, CodecDense},
		{CodecDense, CapSparse | CapQuantized, CodecDense},
		{CodecSparse, 0, CodecDense},
		{CodecSparse, CapSparse, CodecSparse},
		{CodecSparse, CapSparse | CapQuantized, CodecSparse},
		{CodecSparseQ16, CapSparse, CodecSparse},
		{CodecSparseQ16, CapSparse | CapQuantized, CodecSparseQ16},
		// Quantization without sparsity is not a codec: degrade to dense.
		{CodecSparseQ16, CapQuantized, CodecDense},
		// Unknown future bits are ignored.
		{CodecSparseQ16, CapSparse | CapQuantized | 1<<40, CodecSparseQ16},
	}
	for _, tt := range cases {
		if got := NegotiateCodec(tt.max, tt.caps); got != tt.want {
			t.Errorf("NegotiateCodec(%v, %b) = %v, want %v", tt.max, tt.caps, got, tt.want)
		}
	}
}

func TestCodecStringsAndCaps(t *testing.T) {
	for _, tt := range []struct {
		c    Codec
		s    string
		caps uint64
		enc  Enc
	}{
		{CodecDense, "dense", 0, EncF64},
		{CodecSparse, "sparse", CapSparse, EncF64},
		{CodecSparseQ16, "sparse-q16", CapSparse | CapQuantized, EncF16},
	} {
		if tt.c.String() != tt.s {
			t.Errorf("%d.String() = %q, want %q", tt.c, tt.c.String(), tt.s)
		}
		if tt.c.Caps() != tt.caps {
			t.Errorf("%v.Caps() = %b, want %b", tt.c, tt.c.Caps(), tt.caps)
		}
		if tt.c.Enc() != tt.enc {
			t.Errorf("%v.Enc() = %v, want %v", tt.c, tt.c.Enc(), tt.enc)
		}
		got, err := ParseCodec(tt.s)
		if err != nil || got != tt.c {
			t.Errorf("ParseCodec(%q) = %v, %v", tt.s, got, err)
		}
	}
	if _, err := ParseCodec("gzip"); err == nil {
		t.Error("ParseCodec accepted an unknown name")
	}
	if s := Codec(9).String(); s != "Codec(9)" {
		t.Errorf("unknown codec string %q", s)
	}
	if s := Enc(9).String(); s != "Enc(9)" {
		t.Errorf("unknown enc string %q", s)
	}
}

func TestPackSparseAndFloats(t *testing.T) {
	vals := []float64{1.5, -0.25, 1024}

	v, q := PackSparse(EncF64, vals)
	if q != nil || !reflect.DeepEqual(v, vals) {
		t.Fatalf("EncF64 pack: %v, %v", v, q)
	}
	m := &SparseUpdateMsg{Dim: 4, Enc: EncF64, Values: v}
	if got := m.Floats(nil); !reflect.DeepEqual(got, vals) {
		t.Fatalf("EncF64 floats: %v", got)
	}

	v, q = PackSparse(EncF16, vals)
	if v != nil || len(q) != len(vals) {
		t.Fatalf("EncF16 pack: %v, %v", v, q)
	}
	g := &SparseGlobalMsg{Dim: 4, Enc: EncF16, Q: q}
	want := quantize.RoundTripSlice(append([]float64(nil), vals...))
	if got := g.Floats(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("EncF16 floats: got %v, want %v", got, want)
	}
	if g.Scalars() != 3 || m.Scalars() != 3 {
		t.Fatal("Scalars miscounted")
	}
	// Floats reuses dst capacity.
	dst := make([]float64, 0, 8)
	if got := g.Floats(dst); &got[0] != &dst[:1][0] {
		t.Error("Floats did not reuse dst backing array")
	}
}

func TestFrameKind(t *testing.T) {
	if k := FrameKind(Encode(&SparseGlobalMsg{Dim: 1, Values: []float64{1}})); k != KindSparseGlobal {
		t.Fatalf("FrameKind = %v", k)
	}
	if k := FrameKind([]byte{1, 2}); k != 0 {
		t.Fatalf("short frame: %v", k)
	}
}

// TestHandshakeRoundTrip covers Caps/Codec surviving the wire.
func TestHandshakeRoundTrip(t *testing.T) {
	j := &JoinMsg{Name: "c1", SessionKey: "k", HaveRound: 4, Caps: CapSparse | CapQuantized}
	got, _, err := Decode(Encode(j), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, j) {
		t.Fatalf("join round trip: %+v", got)
	}
	w := &WelcomeMsg{ClientID: 2, NumClients: 4, Rounds: 10, Dim: 2,
		Init: []float64{1, 2}, Round: 3, Codec: CodecSparseQ16,
		Missed: []GlobalMsg{{Round: 2, Payload: []float64{5, 6}, Participants: 4}}}
	got, _, err = Decode(Encode(w), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("welcome round trip: %+v", got)
	}
	// An out-of-range negotiated codec is corrupt.
	frame := Encode(w)
	body := append([]byte(nil), frame[headerLen:len(frame)-trailerLen]...)
	body[len(body)-11] = 9 // codec u16 low byte, before catch-up flag + mask generation
	if _, err := decodeBody(KindWelcome, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile codec value: got %v, want ErrCorrupt", err)
	}
}
