package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"apf/internal/checkpoint"
)

// appendBody serializes a JoinMsg body.
func (m *JoinMsg) appendBody(w *checkpoint.Writer) {
	w.String(m.Name)
	w.String(m.SessionKey)
	w.Int(m.HaveRound)
}

// readJoin decodes a JoinMsg body.
func readJoin(r *checkpoint.Reader) *JoinMsg {
	return &JoinMsg{Name: r.String(), SessionKey: r.String(), HaveRound: r.Int()}
}

// appendBody serializes a WelcomeMsg body.
func (m *WelcomeMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.ClientID)
	w.Int(m.NumClients)
	w.Int(m.Rounds)
	w.Int(m.Dim)
	w.F64s(m.Init)
	w.Int(m.Round)
	w.Bool(m.Resumed)
	w.Int(len(m.Missed))
	for i := range m.Missed {
		AppendGlobalBody(w, &m.Missed[i])
	}
	w.U16(uint16(m.Codec))
	w.Bool(m.CatchUp)
	w.Int(m.MaskGen)
}

// globalBodyMinLen is the encoded size of a GlobalMsg with an empty
// payload (round + participants + length prefix, 8 bytes each); it bounds
// hostile missed-list counts before allocation.
const globalBodyMinLen = 24

// readWelcome decodes a WelcomeMsg body.
func readWelcome(r *checkpoint.Reader) *WelcomeMsg {
	m := &WelcomeMsg{
		ClientID:   r.Int(),
		NumClients: r.Int(),
		Rounds:     r.Int(),
		Dim:        r.Int(),
		Init:       r.F64s(),
		Round:      r.Int(),
		Resumed:    r.Bool(),
	}
	n := r.Int()
	if r.Err() != nil {
		return m
	}
	if n < 0 || n > r.Remaining()/globalBodyMinLen {
		r.Fail("missed-payload count overruns frame")
		return m
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		m.Missed = append(m.Missed, ReadGlobalBody(r))
	}
	c := r.U16()
	if r.Err() == nil && c > uint16(CodecSparseQ16) {
		r.Fail(fmt.Sprintf("unknown codec %d", c))
	}
	m.Codec = Codec(c)
	m.CatchUp = r.Bool()
	m.MaskGen = r.Int()
	return m
}

// appendBody serializes an UpdateMsg body.
func (m *UpdateMsg) appendBody(w *checkpoint.Writer) {
	w.Int(m.Round)
	w.F64(m.Weight)
	w.U64(m.MaskHash)
	w.F64s(m.Payload)
}

// readUpdate decodes an UpdateMsg body.
func readUpdate(r *checkpoint.Reader) *UpdateMsg {
	return &UpdateMsg{Round: r.Int(), Weight: r.F64(), MaskHash: r.U64(), Payload: r.F64s()}
}

// AppendGlobalBody serializes a GlobalMsg body without the frame — shared
// by the socket codec, the WelcomeMsg missed-payload list, and the
// transport's WAL commit records.
func AppendGlobalBody(w *checkpoint.Writer, m *GlobalMsg) {
	w.Int(m.Round)
	w.Int(m.Participants)
	w.F64s(m.Payload)
}

// ReadGlobalBody decodes an AppendGlobalBody encoding.
func ReadGlobalBody(r *checkpoint.Reader) GlobalMsg {
	return GlobalMsg{Round: r.Int(), Participants: r.Int(), Payload: r.F64s()}
}

// appendBody serializes a GlobalMsg body.
func (m *GlobalMsg) appendBody(w *checkpoint.Writer) { AppendGlobalBody(w, m) }

// framer is the state one framing reuses across calls: the Writer a body
// encoder fills — reached through the Msg interface, a Writer made per
// call would escape to the heap — and the prefix Encode starts a fresh
// frame in, so the fields ahead of a message's payload cost no allocation
// of their own.
type framer struct {
	w      checkpoint.Writer
	prefix [256]byte
}

var framers = sync.Pool{New: func() any { return new(framer) }}

// Append frames m and appends the frame to dst, returning the extended
// slice. The body is serialized in place behind the header — a message is
// copied exactly once, and a caller that hands back the same buffer
// (dst[:0]) re-frames without allocating. The result is self-contained and
// immutable once built: broadcast paths encode a message once and hand the
// same frame to every connection.
func Append(dst []byte, m Msg) []byte {
	f := framers.Get().(*framer)
	dst = f.append(dst, m)
	framers.Put(f)
	return dst
}

func (f *framer) append(dst []byte, m Msg) []byte {
	start := len(dst)
	f.w = *checkpoint.NewWriter(append(dst, make([]byte, checkpoint.HeaderLen)...))
	m.appendBody(&f.w)
	dst = f.w.Bytes()
	f.w = checkpoint.Writer{} // the pool must not keep the caller's buffer
	return checkpoint.SealFrame(dst, start, byte(m.WireKind()))
}

// Encode frames m into a fresh buffer with one allocation. The frame is
// begun in the framer's prefix: a payload slice's single growth moves it
// out (checkpoint.Writer grows once per slice, leaving room for the
// trailer), and a frame that never outgrows the prefix is copied out.
func Encode(m Msg) []byte {
	f := framers.Get().(*framer)
	frame := f.append(f.prefix[:0], m)
	if cap(frame) == len(f.prefix) {
		frame = bytes.Clone(frame)
	}
	framers.Put(f)
	return frame
}

// decodeBody dispatches a checksummed payload to its kind's body decoder
// and requires it to consume the payload exactly.
func decodeBody(kind Kind, payload []byte) (Msg, error) {
	r := checkpoint.NewReader(payload)
	var m Msg
	switch kind {
	case KindJoin:
		m = readJoin(r)
	case KindWelcome:
		m = readWelcome(r)
	case KindUpdate:
		m = readUpdate(r)
	case KindGlobal:
		g := ReadGlobalBody(r)
		m = &g
	case KindSparseUpdate:
		m = readSparseUpdate(r)
	case KindSparseGlobal:
		m = readSparseGlobal(r)
	case KindRelayJoin:
		m = readRelayJoin(r)
	case KindPartialUpdate:
		m = readPartialUpdate(r)
	case KindResumeOffer:
		m = readResumeOffer(r)
	case KindSketch:
		m = readSketch(r)
	case KindSnapshot:
		m = readSnapshot(r)
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrUnknownKind, uint8(kind))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %s body: %v", ErrCorrupt, kind, err)
	}
	return m, nil
}

// Decode reads the frame at the front of buf, returning the decoded
// message and the remaining bytes. io.EOF is returned on an empty buffer;
// every form of damage maps to a typed error. limit bounds the payload
// length (≤ 0 means checkpoint.MaxPayload).
func Decode(buf []byte, limit int) (Msg, []byte, error) {
	kind, payload, rest, err := checkpoint.ReadFrame(buf, limit)
	if err != nil {
		return nil, nil, err
	}
	m, err := decodeBody(Kind(kind), payload)
	if err != nil {
		return nil, nil, err
	}
	return m, rest, nil
}

// frameChunk is the span of a dense payload a FrameReader holds at once.
const frameChunk = 64 << 10

// Fixed body fields ahead of a dense payload's float count: round, weight
// and mask hash of an update; round and participants of a global.
const (
	updatePrefixLen = 24
	globalPrefixLen = 16
)

// FrameReader reads frames off a stream. The dense kinds (KindUpdate,
// KindGlobal) stream their floats 64 KiB at a time straight into a
// destination the caller supplies, so a model-sized frame costs no
// model-sized body buffer; every other kind is read whole and decoded as
// Decode does. Errors are Decode's, with truncation reported as a
// truncated header or frame. A FrameReader serves one stream at a time.
type FrameReader struct {
	// Alloc returns the destination for a dense payload of n floats (n > 0),
	// called once the frame's header and fixed fields have arrived; nil
	// allocates. The vector is filled before the checksum is verified: on
	// any failure it is dropped, never handed out in a message.
	Alloc func(n int) []float64

	// head holds a frame's header, a dense kind's fixed fields and float
	// count, and (last) its trailer; chunk is the span the floats stream
	// through on a big-endian host.
	head  [checkpoint.HeaderLen + updatePrefixLen + 8 + checkpoint.TrailerLen]byte
	chunk []byte
}

// Read reads exactly one frame from r and decodes it. limit bounds the
// declared payload length (≤ 0 means checkpoint.MaxPayload): an oversized
// header fails with ErrTooLarge before any payload is read or allocated,
// so a hostile peer cannot drive allocations past the caller's bound. An EOF
// before the first header byte is io.EOF (clean connection shutdown); a
// connection dying mid-frame surfaces as the underlying read error.
func (fr *FrameReader) Read(r io.Reader, limit int) (Msg, error) {
	hdr := fr.head[:]
	if _, err := io.ReadFull(r, hdr[:checkpoint.HeaderLen]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		return nil, err
	}
	k, n, err := checkpoint.ParseHeader(hdr, limit)
	if err != nil {
		return nil, err
	}
	kind, prefix := Kind(k), 0
	switch kind {
	case KindUpdate:
		prefix = updatePrefixLen
	case KindGlobal:
		prefix = globalPrefixLen
	}
	if prefix == 0 || n < prefix+8 {
		return readWhole(r, n, hdr[:checkpoint.HeaderLen])
	}
	head := hdr[:checkpoint.HeaderLen+prefix+8]
	if _, err := io.ReadFull(r, head[checkpoint.HeaderLen:]); err != nil {
		return nil, truncated(err)
	}
	count := binary.LittleEndian.Uint64(head[len(head)-8:])
	if uint64(n-prefix-8)/8 != count || (n-prefix-8)%8 != 0 {
		// The count does not fill the body: the whole-body path names the
		// damage exactly as Decode does.
		return readWhole(r, n, head)
	}
	sum := crc32.ChecksumIEEE(head)
	var payload []float64
	if count > 0 {
		if payload, sum, err = fr.readFloats(r, int(count), sum); err != nil {
			return nil, err
		}
	}
	trailer := hdr[len(hdr)-checkpoint.TrailerLen:]
	if _, err := io.ReadFull(r, trailer); err != nil {
		return nil, truncated(err)
	}
	if sum != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// The fixed fields, in readUpdate's and ReadGlobalBody's order.
	fixed := checkpoint.NewReader(head[checkpoint.HeaderLen : len(head)-8])
	if kind == KindGlobal {
		return &GlobalMsg{Round: fixed.Int(), Participants: fixed.Int(), Payload: payload}, nil
	}
	return &UpdateMsg{Round: fixed.Int(), Weight: fixed.F64(), MaskHash: fixed.U64(), Payload: payload}, nil
}

// readFloats streams count little-endian float64s from r into a vector
// from Alloc, folding their bytes into the running checksum sum. On a
// little-endian host the frame's bytes are the vector's memory, so they
// are read straight into it (checkpoint.F64Bytes) a chunk at a time, and
// each chunk is checksummed while it is still in cache; elsewhere they
// pass through the reused chunk buffer and the portable conversion.
func (fr *FrameReader) readFloats(r io.Reader, count int, sum uint32) ([]float64, uint32, error) {
	var dst []float64
	if fr.Alloc != nil {
		dst = fr.Alloc(count)[:count]
	} else {
		dst = make([]float64, count)
	}
	if b := checkpoint.F64Bytes(dst); b != nil {
		for len(b) > 0 {
			n := min(len(b), frameChunk)
			if _, err := io.ReadFull(r, b[:n]); err != nil {
				return nil, 0, truncated(err)
			}
			sum = crc32.Update(sum, crc32.IEEETable, b[:n])
			b = b[n:]
		}
		return dst, sum, nil
	}
	if want := min(8*count, frameChunk); len(fr.chunk) < want {
		fr.chunk = make([]byte, want)
	}
	for rest := dst; len(rest) > 0; {
		b := fr.chunk[:8*min(len(rest), len(fr.chunk)/8)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, 0, truncated(err)
		}
		sum = crc32.Update(sum, crc32.IEEETable, b)
		checkpoint.GetF64s(rest[:len(b)/8], b)
		rest = rest[len(b)/8:]
	}
	return dst, sum, nil
}

// readWhole reads the rest of a frame of an n-byte payload whose first
// len(head) bytes (the header, maybe more) are already in head, and
// decodes it as Decode does.
func readWhole(r io.Reader, n int, head []byte) (Msg, error) {
	frame := make([]byte, checkpoint.HeaderLen+n+checkpoint.TrailerLen)
	copy(frame, head)
	if _, err := io.ReadFull(r, frame[len(head):]); err != nil {
		return nil, truncated(err)
	}
	m, _, err := Decode(frame, 0)
	return m, err
}

// truncated maps an end of stream inside a frame to ErrCorrupt and passes
// any other read error through.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated frame", ErrCorrupt)
	}
	return err
}
