// Package checkpoint makes the coordinator durable. It provides
//
//   - a versioned, checksummed binary framing for protocol-state blobs
//     (Frame/ReadFrame), plus little-endian Writer/Reader primitives that
//     encode float64s via their IEEE-754 bit patterns, so a decoded
//     snapshot is bit-identical to the encoded state;
//   - a codec for the APF manager snapshot (core.State — EMAs, freezing
//     periods, AIMD state, threshold, round/check counters, per-word
//     generations);
//   - a Store that persists a coordinator as an atomically rotated
//     snapshot plus an append-only, fsync'd write-ahead log, and recovers
//     the newest consistent (snapshot, WAL-suffix) pair after a crash,
//     tolerating torn tails from kill -9.
//
// The freezing masks, per-scalar EMAs, and AIMD freezing periods are a
// pure function of the synchronized trajectory (PAPER.md §IV), so a
// coordinator that loses them cannot be reconstructed by the clients;
// persisting the trajectory (the emitted aggregates) and replaying it is
// what makes a restart bit-exact.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the on-disk format version stamped into every frame.
// Decoders reject frames stamped with any other.
const Version = 2

// frame layout: magic(4) version(2) kind(2) length(4) payload CRC32(4).
const (
	frameMagic     = 0x41504643 // "APFC"
	frameHeaderLen = 12
	frameTrailLen  = 4
	// MaxFramePayload bounds a frame so corrupt length fields cannot drive
	// giant allocations during recovery or fuzzing.
	MaxFramePayload = 1 << 30
)

// Frame kinds. Store callers may define further kinds above KindUser.
const (
	// KindManager frames a core.State manager snapshot.
	KindManager uint16 = 1
	// KindUser is the first kind value free for embedding packages
	// (the transport's server snapshot and WAL records live here).
	KindUser uint16 = 64
)

// Typed decode failures, distinguishable with errors.Is.
var (
	// ErrCorrupt marks a frame whose checksum, magic, or structure is
	// damaged (torn writes, bit rot, truncation mid-frame).
	ErrCorrupt = errors.New("checkpoint: corrupt frame")
	// ErrVersion marks a frame written by an incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
)

// AppendFrame appends one checksummed frame of the given kind to dst and
// returns the extended slice. The CRC covers the header and the payload,
// so a torn header is as detectable as a torn payload.
func AppendFrame(dst []byte, kind uint16, payload []byte) []byte {
	if len(payload) > MaxFramePayload {
		panic(fmt.Sprintf("checkpoint: frame payload %d exceeds limit", len(payload)))
	}
	start := len(dst)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint16(hdr[6:], kind)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	var tr [frameTrailLen]byte
	binary.LittleEndian.PutUint32(tr[0:], sum)
	return append(dst, tr[:]...)
}

// ReadFrame decodes the frame at the front of buf, returning its kind,
// payload (aliasing buf), and the remaining bytes. io.EOF is returned on
// an empty buffer; ErrCorrupt on any damage, including a truncated tail.
func ReadFrame(buf []byte) (kind uint16, payload, rest []byte, err error) {
	if len(buf) == 0 {
		return 0, nil, nil, io.EOF
	}
	if len(buf) < frameHeaderLen+frameTrailLen {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte tail shorter than a frame", ErrCorrupt, len(buf))
	}
	if binary.LittleEndian.Uint32(buf[0:]) != frameMagic {
		return 0, nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(buf[4:]); v != Version {
		return 0, nil, nil, fmt.Errorf("%w: frame version %d, this build reads %d", ErrVersion, v, Version)
	}
	kind = binary.LittleEndian.Uint16(buf[6:])
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if n > MaxFramePayload || len(buf) < frameHeaderLen+n+frameTrailLen {
		return 0, nil, nil, fmt.Errorf("%w: frame payload length %d overruns buffer", ErrCorrupt, n)
	}
	end := frameHeaderLen + n
	want := binary.LittleEndian.Uint32(buf[end:])
	if crc32.ChecksumIEEE(buf[:end]) != want {
		return 0, nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return kind, buf[frameHeaderLen:end], buf[end+frameTrailLen:], nil
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

// F64s appends a length-prefixed []float64.
func (w *Writer) F64s(v []float64) {
	w.Int(len(v))
	for _, x := range v {
		w.F64(x)
	}
}

// Ints appends a length-prefixed []int.
func (w *Writer) Ints(v []int) {
	w.Int(len(v))
	for _, x := range v {
		w.Int(x)
	}
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.Int(len(v))
	for _, x := range v {
		w.U64(x)
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

// F64s reads a length-prefixed []float64 (nil when empty).
func (r *Reader) F64s() []float64 {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Ints reads a length-prefixed []int (nil when empty).
func (r *Reader) Ints() []int {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	return out
}

// U64s reads a length-prefixed []uint64 (nil when empty).
func (r *Reader) U64s() []uint64 {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
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
