package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
	return *readPayload(KindGlobal, r).(*GlobalMsg)
}

// The payload kinds — KindUpdate, KindGlobal, KindSparseUpdate and
// KindSparseGlobal — end their bodies in one scalar column: a count, then
// that many scalars of the message's encoding, 8-byte float64 bit patterns
// or 2-byte binary16 halves. Everything ahead of the column, the head, is
// decoded by readHead alone, which both Decode (through readPayload) and
// FrameReader call.

// head is a payload kind's decoded head: the message with its fixed fields
// set, where its column goes, the column's encoding and scalar count.
type head struct {
	msg Msg
	col *[]float64
	enc Enc
	n   int
}

// readHead decodes the head of a payload kind's body from r and checks the
// count before any scalar is read: the column must fit in the bytes r
// still holds plus beyond more, and a sparse message needs a positive
// dimension, at most that many scalars (the unfrozen subset cannot exceed
// the model) and a generation of -1 (unknown) or above. Damage fails r.
// kind must be a payload kind.
func readHead(kind Kind, r *checkpoint.Reader, beyond int) head {
	var h head
	dim, gen := math.MaxInt, -1 // a dense column's bounds: the frame's alone
	switch kind {
	case KindUpdate:
		m := &UpdateMsg{Round: r.Int(), Weight: r.F64(), MaskHash: r.U64()}
		h.msg, h.col = m, &m.Payload
	case KindGlobal:
		m := &GlobalMsg{Round: r.Int(), Participants: r.Int()}
		h.msg, h.col = m, &m.Payload
	case KindSparseUpdate:
		m := &SparseUpdateMsg{Round: r.Int(), Weight: r.F64(), MaskHash: r.U64(), MaskGen: r.Int(), Dim: r.Int(), Enc: readEnc(r)}
		h.msg, h.col, h.enc, dim, gen = m, &m.Values, m.Enc, m.Dim, m.MaskGen
	case KindSparseGlobal:
		m := &SparseGlobalMsg{Round: r.Int(), Participants: r.Int(), MaskHash: r.U64(), MaskGen: r.Int(), Dim: r.Int(), Enc: readEnc(r)}
		h.msg, h.col, h.enc, dim, gen = m, &m.Values, m.Enc, m.Dim, m.MaskGen
	}
	h.n = r.Int()
	if r.Err() != nil {
		return h
	}
	switch {
	case h.n < 0 || h.n > (r.Remaining()+beyond)/h.enc.width():
		r.Fail("scalar count overruns frame")
	case dim <= 0:
		r.Fail(fmt.Sprintf("sparse dense dimension %d not positive", dim))
	case h.n > dim:
		r.Fail(fmt.Sprintf("%d sparse scalars exceed dense dimension %d", h.n, dim))
	case gen < -1:
		r.Fail(fmt.Sprintf("sparse mask generation %d below -1", gen))
	}
	return h
}

// readPayload decodes a payload kind's body from r, its column into a new
// vector (nil when empty).
func readPayload(kind Kind, r *checkpoint.Reader) Msg {
	h := readHead(kind, r, 0)
	if b := r.Take(h.n * h.enc.width()); h.n > 0 && b != nil {
		v := make([]float64, h.n)
		if h.enc != EncF16 {
			checkpoint.GetF64s(v, b)
		} else if !getHalves(v, b) {
			r.Fail(nonCanonicalHalf)
		}
		*h.col = v
	}
	return h.msg
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
	case KindUpdate, KindGlobal, KindSparseUpdate, KindSparseGlobal:
		m = readPayload(kind, r)
	case KindRelayJoin:
		m = readRelayJoin(r)
	case KindPartialUpdate:
		m = readPartialUpdate(r)
	case KindResumeOffer:
		m = readResumeOffer(r)
	case KindSnapshot:
		m = readSnapshot(r)
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrUnknownKind, uint8(kind))
	}
	if err := r.Done(); err != nil {
		return nil, bodyError(kind, err)
	}
	return m, nil
}

// bodyError is the error of a kind's body that failed its decoder.
func bodyError(kind Kind, err error) error {
	return fmt.Errorf("%w: %s body: %v", ErrCorrupt, kind, err)
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

// frameChunk is the span of a payload column a FrameReader holds at once.
const frameChunk = 64 << 10

// maxHeadLen bounds the head of every payload kind (a sparse kind's, 50
// bytes, is the longest).
const maxHeadLen = 64

// headLens[k] is the length of payload kind k's head, measured from its
// encoder as the body of a message with an empty column; 0 for the other
// kinds.
var headLens = func() (l [KindSparseGlobal + 1]int) {
	for _, m := range []Msg{&UpdateMsg{}, &GlobalMsg{}, &SparseUpdateMsg{}, &SparseGlobalMsg{}} {
		l[m.WireKind()] = len(Encode(m)) - checkpoint.HeaderLen - checkpoint.TrailerLen
	}
	return l
}()

// FrameReader reads frames off a stream. The payload kinds (KindUpdate,
// KindGlobal, KindSparseUpdate, KindSparseGlobal) stream their column 64
// KiB at a time straight into a destination the caller supplies, binary16
// halves converted as they arrive, so a model-sized frame costs no
// model-sized body buffer; every other kind is read whole and decoded as
// Decode does. Errors are Decode's, with truncation reported as a
// truncated header or frame. A FrameReader serves one stream at a time.
type FrameReader struct {
	// Alloc returns the destination for a column of n scalars (n > 0),
	// called once the frame's header and head have arrived and passed
	// Decode's checks (a sparse message's dimension, count and
	// generation); nil allocates. The vector is filled before the checksum
	// is verified: on any failure it is dropped, never handed out in a
	// message.
	Alloc func(n int) []float64

	// buf holds a frame's header and a payload kind's head, and (last) its
	// trailer; chunk is the span a binary16 column, or a float64 one on a
	// big-endian host, streams through.
	buf   [checkpoint.HeaderLen + maxHeadLen + checkpoint.TrailerLen]byte
	chunk []byte
}

// Read reads exactly one frame from r and decodes it. limit bounds the
// declared payload length (≤ 0 means checkpoint.MaxPayload): an oversized
// header fails with ErrTooLarge before any payload is read or allocated,
// so a hostile peer cannot drive allocations past the caller's bound. An EOF
// before the first header byte is io.EOF (clean connection shutdown); a
// connection dying mid-frame surfaces as the underlying read error.
func (fr *FrameReader) Read(r io.Reader, limit int) (Msg, error) {
	hdr := fr.buf[:checkpoint.HeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
		}
		return nil, err
	}
	k, n, err := checkpoint.ParseHeader(hdr, limit)
	if err != nil {
		return nil, err
	}
	kind, hl := Kind(k), 0
	if int(kind) < len(headLens) {
		hl = headLens[kind]
	}
	if hl == 0 || n < hl {
		return readWhole(r, n, hdr)
	}
	hdr = fr.buf[:checkpoint.HeaderLen+hl]
	if _, err := io.ReadFull(r, hdr[checkpoint.HeaderLen:]); err != nil {
		return nil, truncated(err)
	}
	fixed := checkpoint.NewReader(hdr[checkpoint.HeaderLen:])
	h := readHead(kind, fixed, n-hl)
	if fixed.Err() != nil || h.n*h.enc.width() != n-hl {
		// A damaged head, or a column that does not fill the body: the
		// whole-body path names the damage exactly as Decode does.
		return readWhole(r, n, hdr)
	}
	sum, canonical := crc32.ChecksumIEEE(hdr), true
	if h.n > 0 {
		if sum, canonical, err = fr.readColumn(r, &h, sum); err != nil {
			return nil, err
		}
	}
	trailer := fr.buf[len(fr.buf)-checkpoint.TrailerLen:]
	if _, err := io.ReadFull(r, trailer); err != nil {
		return nil, truncated(err)
	}
	if sum != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if !canonical {
		fixed.Fail(nonCanonicalHalf)
		return nil, bodyError(kind, fixed.Err())
	}
	return h.msg, nil
}

// readColumn streams h's n scalars from r into a vector from Alloc, folding
// their bytes into the running checksum sum, and reports whether every
// binary16 half was canonical (getHalves). On a little-endian host a
// float64 column's bytes are the vector's memory, so they are read
// straight into it (checkpoint.F64Bytes) a chunk at a time, and each chunk
// is checksummed while it is still in cache; halves, and float64s
// elsewhere, pass through the reused chunk buffer and are converted from
// it.
func (fr *FrameReader) readColumn(r io.Reader, h *head, sum uint32) (uint32, bool, error) {
	var dst []float64
	if fr.Alloc != nil {
		dst = fr.Alloc(h.n)[:h.n]
	} else {
		dst = make([]float64, h.n)
	}
	*h.col = dst
	if b := checkpoint.F64Bytes(dst); b != nil && h.enc != EncF16 {
		for len(b) > 0 {
			n := min(len(b), frameChunk)
			if _, err := io.ReadFull(r, b[:n]); err != nil {
				return 0, false, truncated(err)
			}
			sum = crc32.Update(sum, crc32.IEEETable, b[:n])
			b = b[n:]
		}
		return sum, true, nil
	}
	w := h.enc.width()
	if want := min(w*h.n, frameChunk); len(fr.chunk) < want {
		fr.chunk = make([]byte, want)
	}
	canonical := true
	for rest := dst; len(rest) > 0; {
		k := min(len(rest), len(fr.chunk)/w)
		b := fr.chunk[:w*k]
		if _, err := io.ReadFull(r, b); err != nil {
			return 0, false, truncated(err)
		}
		sum = crc32.Update(sum, crc32.IEEETable, b)
		if h.enc == EncF16 {
			canonical = getHalves(rest[:k], b) && canonical
		} else {
			checkpoint.GetF64s(rest[:k], b)
		}
		rest = rest[k:]
	}
	return sum, canonical, nil
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
