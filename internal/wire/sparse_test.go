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

	"apf/internal/checkpoint"
	"apf/internal/quantize"
)

// reframe patches the version byte of an encoded frame and repairs the
// CRC, producing a structurally intact frame with a lying version stamp.
func reframe(frame []byte, version uint8) []byte {
	f := append([]byte(nil), frame...)
	f[4] = version
	sum := crc32.ChecksumIEEE(f[:len(f)-checkpoint.TrailerLen])
	binary.LittleEndian.PutUint32(f[len(f)-checkpoint.TrailerLen:], sum)
	return f
}

// sparseSampleMsgs covers both sparse kinds under both encodings.
func sparseSampleMsgs() []Msg {
	return []Msg{
		&SparseUpdateMsg{Round: 5, Weight: 30, MaskHash: 0xdeadbeef, MaskGen: 2, Dim: 8,
			Enc: EncF64, Values: []float64{1.5, -2.25, math.Inf(1), 0}},
		&SparseUpdateMsg{Round: 0, Weight: 1, MaskHash: 1, MaskGen: -1, Dim: 3,
			Enc: EncF16, Values: []float64{1, -65504}},
		&SparseGlobalMsg{Round: 9, Participants: 4, MaskHash: 7, MaskGen: 0, Dim: 6,
			Enc: EncF64, Values: []float64{-0.5, 3e300}},
		&SparseGlobalMsg{Round: 12, Participants: 2, MaskHash: 99, MaskGen: 3, Dim: 4,
			// Binary16's edges: infinities and the smallest subnormal.
			Enc: EncF16, Values: []float64{math.Inf(1), math.Inf(-1), 0x1p-24}},
	}
}

// withHalves encodes a binary16 sparse message and overwrites its column
// with the given halves (one per value of m), resealing the checksum: a
// frame carrying bit patterns the encoder never writes.
func withHalves(m Msg, halves ...uint16) []byte {
	f := Encode(m)
	at := len(f) - checkpoint.TrailerLen - 2*len(halves)
	for i, h := range halves {
		binary.LittleEndian.PutUint16(f[at+2*i:], h)
	}
	return reframe(f, f[4])
}

// TestSparseHalfNaNs: a binary16 column's NaNs arrive as float64 NaNs of
// the same sign and re-encode to the same halves when canonical (0x7e00,
// 0xfe00, the only NaNs the encoder writes); any other NaN pattern — a
// payload, a signalling NaN — would re-encode differently, so both decoders
// refuse its frame as corrupt.
func TestSparseHalfNaNs(t *testing.T) {
	m := &SparseGlobalMsg{Round: 12, Participants: 2, MaskHash: 99, MaskGen: 3, Dim: 4,
		Enc: EncF16, Values: []float64{math.NaN(), math.Copysign(math.NaN(), -1), 1}}
	frame := Encode(m)
	if !bytes.Equal(withHalves(m, 0x7e00, 0xfe00, 0x3c00), frame) {
		t.Fatal("NaNs not encoded as the canonical halves 0x7e00/0xfe00")
	}
	got, _, err := Decode(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := got.(*SparseGlobalMsg).Values
	if !math.IsNaN(v[0]) || math.Signbit(v[0]) || !math.IsNaN(v[1]) || !math.Signbit(v[1]) || v[2] != 1 {
		t.Fatalf("canonical halves decoded to %v", v)
	}
	if !bytes.Equal(Encode(got), frame) {
		t.Fatal("canonical NaN halves not re-encoded byte for byte")
	}
	for _, nan := range []uint16{0x7e33, 0xfe01, 0x7c01, 0xffff} {
		bad := withHalves(m, 0x7e00, nan, 0x3c00)
		if _, _, err := Decode(bad, 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("half %#04x: Decode got %v, want ErrCorrupt", nan, err)
		}
		if _, err := new(FrameReader).Read(bytes.NewReader(bad), 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("half %#04x: FrameReader got %v, want ErrCorrupt", nan, err)
		}
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
		if good[4] != checkpoint.Version {
			t.Fatalf("%s stamped version %d, want %d", m.WireKind(), good[4], checkpoint.Version)
		}
		versions := []uint8{checkpoint.Version + 1, 200}
		for v := uint8(0); v < checkpoint.Version; v++ {
			versions = append(versions, v)
		}
		for _, v := range versions {
			bad := reframe(good, v)
			if _, _, err := Decode(bad, 0); !errors.Is(err, ErrVersion) {
				t.Errorf("%s stamped v%d: Decode got %v, want ErrVersion", m.WireKind(), v, err)
			}
			if _, err := new(FrameReader).Read(bytes.NewReader(bad), 0); !errors.Is(err, ErrVersion) {
				t.Errorf("%s stamped v%d: FrameReader got %v, want ErrVersion", m.WireKind(), v, err)
			}
		}
	}
	// Every kind String() names needs a sample; the retired kind 10 is
	// named by none.
	for k := Kind(1); k != 0; k++ {
		if !strings.HasPrefix(k.String(), "Kind(") && !swept[k] {
			t.Errorf("the sweep has no %s sample", k)
		}
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
			up := &SparseUpdateMsg{Round: 3, Weight: 30, MaskHash: 7, MaskGen: 4, Dim: dim, Enc: enc, Values: vals}
			down := &SparseGlobalMsg{Round: 3, Participants: 2, MaskHash: 7, MaskGen: 4, Dim: dim, Enc: enc, Values: vals}
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
	body := append([]byte(nil), frame[checkpoint.HeaderLen:len(frame)-checkpoint.TrailerLen]...)
	// The final 8 bytes are the scalar count (0); overwrite with 1<<40.
	for i := len(body) - 8; i < len(body); i++ {
		body[i] = 0
	}
	body[len(body)-3] = 1
	if _, err := decodeBody(KindSparseUpdate, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile half count: got %v, want ErrCorrupt", err)
	}
}

func TestCodecStrings(t *testing.T) {
	for _, tt := range []struct {
		c   Codec
		s   string
		enc Enc
	}{
		{CodecDense, "dense", EncF64},
		{CodecSparse, "sparse", EncF64},
		{CodecSparseQ16, "sparse-q16", EncF16},
	} {
		if tt.c.String() != tt.s {
			t.Errorf("%d.String() = %q, want %q", tt.c, tt.c.String(), tt.s)
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

// TestSparseScalarsAndFloats: a sparse message holds float64 scalars under
// either encoding; Scalars counts them and Floats copies them into a
// reused vector. Under EncF16 a frame carries each value's nearest half,
// so what a receiver decodes is quantize.RoundTripSlice of what was sent.
func TestSparseScalarsAndFloats(t *testing.T) {
	vals := []float64{1.5, -0.25, 1024, 0.1}
	for _, enc := range []Enc{EncF64, EncF16} {
		m := &SparseUpdateMsg{Dim: 4, Enc: enc, Values: vals}
		if got := m.Floats(nil); !reflect.DeepEqual(got, vals) || m.Scalars() != len(vals) {
			t.Fatalf("%s: Floats %v, Scalars %d", enc, got, m.Scalars())
		}
		dst := make([]float64, 0, 8)
		if got := m.Floats(dst); &got[0] != &dst[:1][0] {
			t.Errorf("%s: Floats did not reuse dst backing array", enc)
		}
		want := vals
		if enc == EncF16 {
			want = quantize.RoundTripSlice(append([]float64(nil), vals...))
		}
		got, _, err := Decode(Encode(&SparseGlobalMsg{Dim: 4, Enc: enc, Values: vals}), 0)
		if err != nil {
			t.Fatal(err)
		}
		if g := got.(*SparseGlobalMsg); !reflect.DeepEqual(g.Values, want) || g.Scalars() != len(vals) {
			t.Fatalf("%s: decoded %v, want %v", enc, g.Values, want)
		}
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

// TestHandshakeRoundTrip covers the join and the Welcome's codec
// surviving the wire.
func TestHandshakeRoundTrip(t *testing.T) {
	j := &JoinMsg{Name: "c1", SessionKey: "k", HaveRound: 4}
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
	// An out-of-range codec is corrupt.
	frame := Encode(w)
	body := append([]byte(nil), frame[checkpoint.HeaderLen:len(frame)-checkpoint.TrailerLen]...)
	body[len(body)-11] = 9 // codec u16 low byte, before catch-up flag + mask generation
	if _, err := decodeBody(KindWelcome, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile codec value: got %v, want ErrCorrupt", err)
	}
}
