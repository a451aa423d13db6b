package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"apf/internal/checkpoint"
	"apf/internal/quantize"
)

// Codec identifies a cluster's payload codec. Every tier of one cluster
// speaks the same codec: the server announces its own in each
// WelcomeMsg, and a peer configured with another refuses the session.
type Codec uint8

// The payload codecs, weakest to strongest.
const (
	// CodecDense frames every payload as dense UpdateMsg/GlobalMsg.
	CodecDense Codec = 0
	// CodecSparse sends only the unfrozen scalars as float64, framed by
	// the sparse kinds. Lossless: models stay bit-identical to dense mode.
	CodecSparse Codec = 1
	// CodecSparseQ16 additionally quantizes the unfrozen scalars to IEEE
	// binary16 (4x fewer payload bytes than CodecSparse; lossy).
	CodecSparseQ16 Codec = 2
)

// String names the codec for flags, metrics, and errors.
func (c Codec) String() string {
	switch c {
	case CodecDense:
		return "dense"
	case CodecSparse:
		return "sparse"
	case CodecSparseQ16:
		return "sparse-q16"
	}
	return fmt.Sprintf("Codec(%d)", uint8(c))
}

// ParseCodec maps a flag value to its codec.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "dense":
		return CodecDense, nil
	case "sparse":
		return CodecSparse, nil
	case "sparse-q16":
		return CodecSparseQ16, nil
	}
	return 0, fmt.Errorf("wire: unknown codec %q (want dense, sparse, or sparse-q16)", s)
}

// Enc returns the payload scalar encoding this codec puts on the wire.
func (c Codec) Enc() Enc {
	if c == CodecSparseQ16 {
		return EncF16
	}
	return EncF64
}

// Enc identifies the scalar encoding of a sparse payload.
type Enc uint8

// Sparse payload encodings.
const (
	// EncF64 carries raw IEEE-754 float64 bits (lossless).
	EncF64 Enc = 0
	// EncF16 carries IEEE-754 binary16 bits (package quantize semantics).
	EncF16 Enc = 1
)

// String names the encoding for error messages.
func (e Enc) String() string {
	switch e {
	case EncF64:
		return "f64"
	case EncF16:
		return "f16"
	}
	return fmt.Sprintf("Enc(%d)", uint8(e))
}

// SparseUpdateMsg is the mask-aware form of UpdateMsg: only the unfrozen scalars
// cross the wire, positionally against the shared freezing bitset. No
// indices are transmitted — MaskHash (and MaskGen) prove both sides hold
// the identical mask, which is what makes the positional encoding sound;
// a disagreement surfaces as a typed divergence error instead of a silent
// mis-expansion.
//
// Values holds the scalars as float64 under either encoding: Enc decides
// only how they cross the wire. Under EncF16 the encoder writes each as
// its nearest binary16 half (quantize.Float64ToHalf, round to nearest
// even) and the decoder reads each half back exactly
// (quantize.HalfToFloat64), so a sender whose local copy must match what
// the receiver decodes rounds it first (quantize.RoundTripSlice). A
// decoder refuses a NaN half other than 0x7e00/0xfe00, the only NaNs the
// encoder writes, which keeps decode→encode the identity.
type SparseUpdateMsg struct {
	Round  int
	Weight float64
	// MaskHash is the FNV-1a hash of the sender's freezing-mask words
	// (transport.HashMaskWords).
	MaskHash uint64
	// MaskGen counts the sender's stability checks — the mask's
	// generation. -1 means unknown (managers without a generation
	// counter).
	MaskGen int
	// Dim is the dense model dimension the payload expands into.
	Dim    int
	Enc    Enc
	Values []float64
}

// SparseGlobalMsg is the mask-aware form of GlobalMsg: the aggregate's unfrozen
// scalars against the round's agreed mask, which the server echoes back
// via MaskHash/MaskGen so each client can verify its own mask matches
// before expanding. Values and Enc are as in SparseUpdateMsg.
type SparseGlobalMsg struct {
	Round        int
	Participants int
	MaskHash     uint64
	MaskGen      int // -1 when the round's updates carried no generation
	Dim          int
	Enc          Enc
	Values       []float64
}

// WireKind implements Msg.
func (*SparseUpdateMsg) WireKind() Kind { return KindSparseUpdate }

// WireKind implements Msg.
func (*SparseGlobalMsg) WireKind() Kind { return KindSparseGlobal }

// Scalars returns the number of payload scalars.
func (m *SparseUpdateMsg) Scalars() int { return len(m.Values) }

// Scalars returns the number of payload scalars.
func (m *SparseGlobalMsg) Scalars() int { return len(m.Values) }

// Floats copies the payload scalars into dst (grown as needed).
func (m *SparseUpdateMsg) Floats(dst []float64) []float64 { return append(dst[:0], m.Values...) }

// Floats copies the payload scalars into dst (grown as needed).
func (m *SparseGlobalMsg) Floats(dst []float64) []float64 { return append(dst[:0], m.Values...) }

// appendBody serializes a SparseUpdateMsg body.
func (m *SparseUpdateMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.F64(m.Weight)
	w.U64(m.MaskHash)
	w.Int(m.MaskGen)
	w.Int(m.Dim)
	w.U16(uint16(m.Enc))
	appendColumn(w, m.Enc, m.Values)
}

// appendBody serializes a SparseGlobalMsg body.
func (m *SparseGlobalMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.Participants)
	w.U64(m.MaskHash)
	w.Int(m.MaskGen)
	w.Int(m.Dim)
	w.U16(uint16(m.Enc))
	appendColumn(w, m.Enc, m.Values)
}

// width is the size of one scalar on the wire under e.
func (e Enc) width() int {
	if e == EncF16 {
		return 2
	}
	return 8
}

// appendColumn writes a payload column under enc: the scalar count, then
// each scalar as its float64 bits, or under EncF16 as its binary16 half.
func appendColumn(w *checkpoint.Writer, enc Enc, v []float64) {
	if enc != EncF16 {
		w.F64s(v)
		return
	}
	w.Int(len(v))
	w.AppendWith(func(dst []byte) []byte {
		// One growth, with room for the frame's trailer behind the halves.
		at := len(dst)
		dst = slices.Grow(dst, 2*len(v)+checkpoint.TrailerLen)[:at+2*len(v)]
		for i, x := range v {
			binary.LittleEndian.PutUint16(dst[at+2*i:], quantize.Float64ToHalf(x))
		}
		return dst
	})
}

// nonCanonicalHalf is the damage getHalves reports.
const nonCanonicalHalf = "non-canonical binary16 NaN"

// getHalves fills v from the little-endian binary16 halves in b, which
// must hold 2·len(v) bytes, and reports whether every half is canonical:
// a NaN other than 0x7e00/0xfe00 would re-encode as one of those, so a
// frame carrying it is refused.
func getHalves(v []float64, b []byte) bool {
	b = b[:2*len(v)]
	canonical := true
	for i := range v {
		h := uint16(b[2*i]) | uint16(b[2*i+1])<<8
		if a := h & 0x7fff; a > 0x7c00 && a != 0x7e00 {
			canonical = false
		}
		v[i] = quantize.HalfToFloat64(h)
	}
	return canonical
}

// readEnc decodes and validates the encoding tag.
func readEnc(r *checkpoint.Reader) Enc {
	e := r.U16()
	if r.Err() == nil && e > uint16(EncF16) {
		r.Fail(fmt.Sprintf("unknown sparse payload encoding %d", e))
	}
	return Enc(e)
}

// DenseGlobalFrameSize returns the encoded size of a dense full-dimension
// GlobalMsg frame — the wire cost of broadcasting one aggregate without
// masking, the baseline against which sparse bytes-saved accounting and
// the wire benchmark measure.
func DenseGlobalFrameSize(dim int) int {
	return checkpoint.HeaderLen + checkpoint.TrailerLen + 3*8 + 8*dim
}

// FrameKind reports the kind byte of an already-encoded frame without
// decoding it (no validation beyond the header length); broadcast paths
// use it to account pre-encoded frames they fan out.
func FrameKind(frame []byte) Kind {
	if len(frame) < checkpoint.HeaderLen {
		return 0
	}
	return Kind(frame[5])
}
