package wire

import (
	"fmt"

	"apf/internal/checkpoint"
	"apf/internal/quantize"
)

// Codec identifies a per-session payload codec, negotiated at the
// Join/Welcome handshake: the client advertises capability bits (Caps),
// the server picks the strongest codec both sides support, bounded by its
// own configured maximum.
type Codec uint8

// The negotiable codecs, weakest to strongest.
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

// Capability bits a client advertises in JoinMsg.Caps. Unknown bits are
// ignored by the server (forward compatibility).
const (
	// CapSparse: the client can frame its unfrozen scalars as sparse
	// messages and expand sparse globals (requires a mask-reporting
	// compact manager).
	CapSparse uint64 = 1 << 0
	// CapQuantized: the client additionally speaks binary16 payloads.
	CapQuantized uint64 = 1 << 1
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

// Caps returns the capability bits a client must advertise to obtain this
// codec.
func (c Codec) Caps() uint64 {
	switch c {
	case CodecSparse:
		return CapSparse
	case CodecSparseQ16:
		return CapSparse | CapQuantized
	}
	return 0
}

// Enc returns the payload scalar encoding this codec puts on the wire.
func (c Codec) Enc() Enc {
	if c == CodecSparseQ16 {
		return EncF16
	}
	return EncF64
}

// NegotiateCodec picks the strongest codec allowed by both the server's
// configured maximum and the client's advertised capability bits. Missing
// capabilities degrade gracefully toward dense; the result never exceeds
// what the client asked for, so a client advertising no capabilities
// always gets a dense session.
func NegotiateCodec(max Codec, caps uint64) Codec {
	c := CodecDense
	if max >= CodecSparse && caps&CapSparse != 0 {
		c = CodecSparse
	}
	if max >= CodecSparseQ16 && caps&CapSparse != 0 && caps&CapQuantized != 0 {
		c = CodecSparseQ16
	}
	return c
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
// Exactly one of Values/Q is populated, selected by Enc. EncF16 payloads
// stay raw uint16 in memory so decode→encode is the identity even for
// non-canonical NaN patterns (the canonical-encoding fuzz oracle).
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
	Values []float64 // EncF64 payload
	Q      []uint16  // EncF16 payload
}

// SparseGlobalMsg is the mask-aware form of GlobalMsg: the aggregate's unfrozen
// scalars against the round's agreed mask, which the server echoes back
// via MaskHash/MaskGen so each client can verify its own mask matches
// before expanding.
type SparseGlobalMsg struct {
	Round        int
	Participants int
	MaskHash     uint64
	MaskGen      int // -1 when the round's updates carried no generation
	Dim          int
	Enc          Enc
	Values       []float64
	Q            []uint16
}

// WireKind implements Msg.
func (*SparseUpdateMsg) WireKind() Kind { return KindSparseUpdate }

// WireKind implements Msg.
func (*SparseGlobalMsg) WireKind() Kind { return KindSparseGlobal }

// Scalars returns the number of payload scalars under either encoding.
func (m *SparseUpdateMsg) Scalars() int { return sparseScalars(m.Enc, m.Values, m.Q) }

// Scalars returns the number of payload scalars under either encoding.
func (m *SparseGlobalMsg) Scalars() int { return sparseScalars(m.Enc, m.Values, m.Q) }

// Floats expands the payload scalars to float64 into dst (grown as
// needed): a copy for EncF64, a binary16 decode for EncF16.
func (m *SparseUpdateMsg) Floats(dst []float64) []float64 {
	return sparseFloats(dst, m.Enc, m.Values, m.Q)
}

// Floats expands the payload scalars to float64 into dst.
func (m *SparseGlobalMsg) Floats(dst []float64) []float64 {
	return sparseFloats(dst, m.Enc, m.Values, m.Q)
}

func sparseScalars(enc Enc, values []float64, q []uint16) int {
	if enc == EncF16 {
		return len(q)
	}
	return len(values)
}

func sparseFloats(dst []float64, enc Enc, values []float64, q []uint16) []float64 {
	if enc == EncF64 {
		return append(dst[:0], values...)
	}
	dst = dst[:0]
	for _, h := range q {
		dst = append(dst, quantize.HalfToFloat64(h))
	}
	return dst
}

// PackSparse converts float64 scalars into a sparse message's payload
// columns under the given encoding: (vals, nil) for EncF64, (nil, halves)
// for EncF16. The EncF16 column quantizes with round-to-nearest-even; a
// sender that needs its local copy to match what the receiver decodes
// should quantize.RoundTripSlice its values first.
func PackSparse(enc Enc, vals []float64) ([]float64, []uint16) {
	if enc == EncF64 {
		return vals, nil
	}
	q := make([]uint16, len(vals))
	for i, v := range vals {
		q[i] = quantize.Float64ToHalf(v)
	}
	return nil, q
}

// appendBody serializes a SparseUpdateMsg body.
func (m *SparseUpdateMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.F64(m.Weight)
	w.U64(m.MaskHash)
	w.Int(m.MaskGen)
	w.Int(m.Dim)
	w.U16(uint16(m.Enc))
	appendSparseValues(w, m.Enc, m.Values, m.Q)
}

// readSparseUpdate decodes a SparseUpdateMsg body, validating the
// hostile-input surface (dimension, generation, scalar count, encoding
// tag) before any expansion happens.
func readSparseUpdate(r *checkpoint.Reader) *SparseUpdateMsg {
	m := &SparseUpdateMsg{
		Round:    r.Int(),
		Weight:   r.F64(),
		MaskHash: r.U64(),
		MaskGen:  r.Int(),
		Dim:      r.Int(),
	}
	m.Enc = readEnc(r)
	m.Values, m.Q = readSparseValues(r, m.Enc)
	validateSparse(r, m.Dim, m.MaskGen, m.Scalars())
	return m
}

// appendBody serializes a SparseGlobalMsg body.
func (m *SparseGlobalMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.Int(m.Participants)
	w.U64(m.MaskHash)
	w.Int(m.MaskGen)
	w.Int(m.Dim)
	w.U16(uint16(m.Enc))
	appendSparseValues(w, m.Enc, m.Values, m.Q)
}

// readSparseGlobal decodes a SparseGlobalMsg body.
func readSparseGlobal(r *checkpoint.Reader) *SparseGlobalMsg {
	m := &SparseGlobalMsg{
		Round:        r.Int(),
		Participants: r.Int(),
		MaskHash:     r.U64(),
		MaskGen:      r.Int(),
		Dim:          r.Int(),
	}
	m.Enc = readEnc(r)
	m.Values, m.Q = readSparseValues(r, m.Enc)
	validateSparse(r, m.Dim, m.MaskGen, m.Scalars())
	return m
}

// appendSparseValues writes the payload column selected by enc.
func appendSparseValues(w *checkpoint.Writer, enc Enc, values []float64, q []uint16) {
	if enc == EncF16 {
		w.Int(len(q))
		for _, h := range q {
			w.U16(h)
		}
		return
	}
	w.F64s(values)
}

// readEnc decodes and validates the encoding tag.
func readEnc(r *checkpoint.Reader) Enc {
	e := r.U16()
	if r.Err() == nil && e > uint16(EncF16) {
		r.Fail(fmt.Sprintf("unknown sparse payload encoding %d", e))
	}
	return Enc(e)
}

// readSparseValues decodes the payload column selected by enc, bounding
// hostile counts by the remaining frame bytes before allocation.
func readSparseValues(r *checkpoint.Reader, enc Enc) ([]float64, []uint16) {
	if enc != EncF16 {
		return r.F64s(), nil
	}
	n := r.Int()
	if r.Err() != nil {
		return nil, nil
	}
	if n < 0 || n > r.Remaining()/2 {
		r.Fail("binary16 scalar count overruns frame")
		return nil, nil
	}
	q := make([]uint16, n)
	for i := range q {
		q[i] = r.U16()
	}
	return nil, q
}

// validateSparse enforces the structural invariants a sparse message must
// satisfy regardless of transport context: a positive dense dimension, at
// most Dim payload scalars (the unfrozen subset cannot exceed the model),
// and a generation of -1 (unknown) or above.
func validateSparse(r *checkpoint.Reader, dim, gen, scalars int) {
	if r.Err() != nil {
		return
	}
	switch {
	case dim <= 0:
		r.Fail(fmt.Sprintf("sparse dense dimension %d not positive", dim))
	case scalars > dim:
		r.Fail(fmt.Sprintf("%d sparse scalars exceed dense dimension %d", scalars, dim))
	case gen < -1:
		r.Fail(fmt.Sprintf("sparse mask generation %d below -1", gen))
	}
}

// DenseGlobalFrameSize returns the encoded size of a dense full-dimension
// GlobalMsg frame — the wire cost of broadcasting one aggregate without
// masking, the baseline against which sparse bytes-saved accounting and
// the wire benchmark measure.
func DenseGlobalFrameSize(dim int) int {
	return headerLen + trailerLen + 3*8 + 8*dim
}

// FrameKind reports the kind byte of an already-encoded frame without
// decoding it (no validation beyond the header length); broadcast paths
// use it to account pre-encoded frames they fan out.
func FrameKind(frame []byte) Kind {
	if len(frame) < headerLen {
		return 0
	}
	return Kind(frame[5])
}
