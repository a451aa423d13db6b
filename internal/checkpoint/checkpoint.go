// Package checkpoint makes the coordinator durable and owns the one frame
// format every APF byte stream uses. It provides
//
//   - the frame: a versioned, length-prefixed, CRC-checked envelope
//     (SealFrame, ParseHeader, ReadFrame) that package wire wraps around
//     every protocol message and Store around every snapshot and log
//     record, with one Version, one MaxPayload and one set of errors;
//   - little-endian Writer/Reader primitives that encode float64s via
//     their IEEE-754 bit patterns, so a decoded snapshot is bit-identical
//     to the encoded state (package core encodes core.State — EMAs,
//     freezing periods, AIMD state, threshold, round/check counters,
//     per-word generations, word coverage — with these primitives,
//     unframed: whatever carries it frames it);
//   - a Store that persists a coordinator as an atomically rotated
//     snapshot plus an fsync'd write-ahead log of generation-stamped
//     records, recycles the retired generation's files instead of freeing
//     them, and recovers the newest consistent (snapshot, WAL-prefix) pair
//     after a crash, tolerating torn tails from kill -9.
//
// The freezing masks, per-scalar EMAs, and AIMD freezing periods are a
// pure function of the synchronized trajectory (PAPER.md §IV), so a
// coordinator that loses them cannot be reconstructed by the clients;
// persisting the trajectory (the emitted aggregates) and replaying it is
// what makes a restart bit-exact.
//
// # Frame layout
//
//	offset  size  field
//	0       4     magic "APFW" (0x57465041 little-endian)
//	4       1     format version (Version)
//	5       1     kind: 1–11 are package wire's messages (10 retired),
//	              0x80 and 0x81 the Store's snapshot and log record
//	6       4     payload length n, little-endian
//	10      n     payload
//	10+n    4     CRC-32 (IEEE) over header + payload
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Version is the format version stamped on every frame, on the socket and
// on disk, and the only one decoded.
const Version = 12

// Frame geometry.
const (
	frameMagic = 0x57465041 // "APFW" little-endian
	// HeaderLen is the size of a frame's header: magic, version, kind and
	// payload length.
	HeaderLen = 10
	// TrailerLen is the size of a frame's CRC trailer.
	TrailerLen = 4
	// MaxPayload is the hard upper bound on a frame payload; a declared
	// length beyond it is refused from the header alone, before any
	// allocation. Readers of a network stream usually pass a much tighter
	// limit derived from the model geometry.
	MaxPayload = 1 << 30
)

// Typed decode failures, distinguishable with errors.Is.
var (
	// ErrCorrupt marks a frame whose magic, checksum, or body structure is
	// damaged (torn writes, bit rot, truncation, trailing garbage).
	ErrCorrupt = errors.New("corrupt frame")
	// ErrVersion marks a frame stamped with another format version.
	ErrVersion = errors.New("unsupported format version")
	// ErrTooLarge marks a frame whose declared payload exceeds the
	// reader's limit; it is detected from the header alone, before the
	// payload is read or allocated.
	ErrTooLarge = errors.New("frame exceeds payload limit")
)

// SealFrame completes the frame that begins at dst[start:] — HeaderLen
// bytes reserved there, the payload behind them — by writing its header
// for kind and appending the CRC over header and payload. It returns the
// extended slice and panics on a payload over MaxPayload.
func SealFrame(dst []byte, start int, kind byte) []byte {
	n := len(dst) - start - HeaderLen
	if n > MaxPayload {
		panic(fmt.Sprintf("checkpoint: frame payload %d exceeds MaxPayload", n))
	}
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr, frameMagic)
	hdr[4] = Version
	hdr[5] = kind
	binary.LittleEndian.PutUint32(hdr[6:], uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ParseHeader validates a frame header's magic, version and declared
// payload length, returning the kind (unchecked: its meaning is the
// caller's) and the length. limit bounds the length (≤ 0 means
// MaxPayload); the bound is applied to the unsigned field, so no declared
// length reaches an int unbounded.
func ParseHeader(hdr []byte, limit int) (kind byte, n int, err error) {
	if binary.LittleEndian.Uint32(hdr) != frameMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := hdr[4]; v != Version {
		return 0, 0, fmt.Errorf("%w: frame version %d, this build reads %d", ErrVersion, v, Version)
	}
	if limit <= 0 || limit > MaxPayload {
		limit = MaxPayload
	}
	size := binary.LittleEndian.Uint32(hdr[6:])
	if uint64(size) > uint64(limit) {
		return 0, 0, fmt.Errorf("%w: declared payload %d over limit %d", ErrTooLarge, size, limit)
	}
	return hdr[5], int(size), nil
}

// ReadFrame checks the frame at the front of buf whole — header, length
// and checksum — and returns its kind, payload (aliasing buf) and the
// remaining bytes. io.EOF is returned on an empty buffer; any damage,
// including a truncated tail, is a typed error. limit is ParseHeader's.
func ReadFrame(buf []byte, limit int) (kind byte, payload, rest []byte, err error) {
	if len(buf) == 0 {
		return 0, nil, nil, io.EOF
	}
	if len(buf) < HeaderLen+TrailerLen {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte tail shorter than a frame", ErrCorrupt, len(buf))
	}
	kind, n, err := ParseHeader(buf, limit)
	if err != nil {
		return 0, nil, nil, err
	}
	end := HeaderLen + n
	if len(buf)-TrailerLen < end {
		return 0, nil, nil, fmt.Errorf("%w: payload length %d overruns buffer", ErrCorrupt, n)
	}
	if crc32.ChecksumIEEE(buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return 0, nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return kind, buf[HeaderLen:end], buf[end+TrailerLen:], nil
}

// Writer serializes scalars and slices little-endian into a growing
// buffer. Floats are written as raw IEEE-754 bits, never formatted, so
// encode/decode round-trips bit-exactly (NaN payloads included).
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer that appends to buf, so an encoding can be
// built in place behind bytes the caller already wrote, or into a buffer it
// reuses. The zero Writer starts empty.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// AppendWith extends the encoding through an append-style encoder — one
// that returns its argument with bytes appended — for sections whose
// layout is owned by another package.
func (w *Writer) AppendWith(encode func(dst []byte) []byte) { w.buf = encode(w.buf) }

// Reset discards the accumulated encoding but keeps the backing array, so
// a pooled Writer re-encodes without reallocating (package wire re-frames
// every protocol message through one of these).
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// U16 appends one uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U64 appends one uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int appends one int (as a sign-preserving 64-bit value).
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Bool appends one bool.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// F64 appends one float64 as its bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// words extends the encoding by a length prefix and n 8-byte words and
// returns the words' span for the caller to fill. The buffer grows at most
// once, with room for a frame's checksum trailer behind the span, so a
// model-sized slice costs one allocation and the trailer none.
func (w *Writer) words(n int) []byte {
	size := 8 + 8*n
	if cap(w.buf)-len(w.buf) < size {
		w.buf = slices.Grow(w.buf, size+TrailerLen)
	}
	at := len(w.buf)
	w.buf = w.buf[:at+size]
	binary.LittleEndian.PutUint64(w.buf[at:], uint64(n))
	return w.buf[at+8:]
}

// F64s appends a length-prefixed []float64.
func (w *Writer) F64s(v []float64) { PutF64s(w.words(len(v)), v) }

// Ints appends a length-prefixed []int.
func (w *Writer) Ints(v []int) {
	b := w.words(len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(x)))
	}
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	b := w.words(len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
}

// U32s appends a length-prefixed []uint32 in the Ints layout, one 8-byte
// word per value.
func (w *Writer) U32s(v []uint32) {
	b := w.words(len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.buf = append(w.buf, s...)
}

// Reader decodes a Writer-produced buffer. It is error-sticky: after the
// first failure every further read returns zero values, and Err reports
// the failure, so decoders can be written without per-field checks.
type Reader struct {
	buf []byte
	err error
}

// NewReader wraps an encoded payload.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decode failure, wrapping ErrCorrupt.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many undecoded bytes are left. Decoders of
// variable-count structures (the wire protocol's missed-payload lists, the
// transport's session tables) use it to bound counts before allocating.
func (r *Reader) Remaining() int { return len(r.buf) }

// Fail marks the Reader corrupt with the given reason (wrapping
// ErrCorrupt) unless it already failed. Decoders use it to reject
// structurally valid but semantically impossible values — counts that
// overrun the payload, enum bytes outside their range.
func (r *Reader) Fail(msg string) { r.fail(msg) }

// Done returns Err, or ErrCorrupt if undecoded bytes trail the payload.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.fail("trailing garbage")
	}
	return r.err
}

func (r *Reader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, msg)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf) < n {
		r.fail("truncated payload")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Rest consumes and returns every remaining byte without copying: the
// result aliases the payload the Reader wraps (nil after a failure).
func (r *Reader) Rest() []byte { return r.take(len(r.buf)) }

// Take consumes and returns the next n bytes without copying, for
// sections whose layout is owned by another package; fewer than n left
// fails the Reader (nil after a failure).
func (r *Reader) Take(n int) []byte { return r.take(n) }

// U16 reads one uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U64 reads one uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads one int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Bool reads one bool.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.fail("invalid bool")
		return false
	}
	return b[0] == 1
}

// F64 reads one float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// length reads a slice length and bounds it by the remaining bytes at
// elemSize each, so corrupt lengths cannot drive giant allocations.
func (r *Reader) length(elemSize int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	// Divide rather than multiply: n*elemSize could overflow for a
	// corrupt length and slip past the bound.
	if n < 0 || n > len(r.buf)/elemSize {
		r.fail("slice length overruns payload")
		return 0
	}
	return n
}

// words reads a slice length and consumes that many 8-byte words in one
// step, returning their span (nil when empty or after a failure).
func (r *Reader) words() []byte {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	return r.take(8 * n)
}

// F64s reads a length-prefixed []float64 (nil when empty).
func (r *Reader) F64s() []float64 {
	b := r.words()
	if b == nil {
		return nil
	}
	out := make([]float64, len(b)/8)
	GetF64s(out, b)
	return out
}

// Ints reads a length-prefixed []int (nil when empty).
func (r *Reader) Ints() []int {
	b := r.words()
	if b == nil {
		return nil
	}
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// U64s reads a length-prefixed []uint64 (nil when empty).
func (r *Reader) U64s() []uint64 {
	b := r.words()
	if b == nil {
		return nil
	}
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// U32s reads a U32s-encoded []uint32 (nil when empty); a value past 32
// bits fails the Reader.
func (r *Reader) U32s() []uint32 {
	b := r.words()
	if b == nil {
		return nil
	}
	out := make([]uint32, len(b)/8)
	for i := range out {
		v := binary.LittleEndian.Uint64(b[8*i:])
		if v > math.MaxUint32 {
			r.fail("uint32 value out of range")
			return nil
		}
		out[i] = uint32(v)
	}
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	if r.err != nil {
		return ""
	}
	return string(r.take(n))
}
