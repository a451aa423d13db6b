package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"apf/internal/checkpoint"
)

// corpusSeeds returns the byte seeds of the checked-in frame corpora: this
// package's FuzzWireDecode seeds and the transport's FuzzServerDecode
// streams (several frames back to back).
func corpusSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, dir := range []string{"testdata/fuzz/FuzzWireDecode", "../transport/testdata/fuzz/FuzzServerDecode"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no corpus under %s: %v", dir, err)
		}
		for _, path := range paths {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
				t.Fatalf("%s: not a single []byte seed", path)
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			seeds = append(seeds, []byte(s))
		}
	}
	return seeds
}

// denseFrames returns a dense update and a dense global of n scalars each,
// with NaN and signed-zero payload bits among them.
func denseFrames(n int) map[string][]byte {
	p := make([]float64, n)
	for i := range p {
		p[i] = float64(i%97) - 48.5
	}
	if n > 2 {
		p[1], p[2] = math.NaN(), math.Copysign(0, -1)
	}
	return map[string][]byte{
		"update": Encode(&UpdateMsg{Round: 5, Weight: 2.5, MaskHash: 0xfeedface, Payload: p}),
		"global": Encode(&GlobalMsg{Round: 5, Participants: 3, Payload: p}),
	}
}

// sparseFrames returns a sparse update and a sparse global of n scalars
// under each encoding, against a dimension of 2n+1, with NaN and
// signed-zero scalars among them.
func sparseFrames(n int) map[string][]byte {
	p := make([]float64, n)
	for i := range p {
		p[i] = float64(i%97)/8 - 6
	}
	if n > 2 {
		p[1], p[2] = math.NaN(), math.Copysign(0, -1)
	}
	out := map[string][]byte{}
	for _, enc := range []Enc{EncF64, EncF16} {
		out["sparse-update-"+enc.String()] = Encode(&SparseUpdateMsg{Round: 5, Weight: 2.5, MaskHash: 0xfeedface,
			MaskGen: 3, Dim: 2*n + 1, Enc: enc, Values: p})
		out["sparse-global-"+enc.String()] = Encode(&SparseGlobalMsg{Round: 5, Participants: 3, MaskHash: 0xfeedface,
			MaskGen: -1, Dim: 2*n + 1, Enc: enc, Values: p})
	}
	return out
}

// hostileSparseFrames returns sparse frames each damaged in one way the
// stream reader must refuse as Decode does: cut inside the column, a
// flipped checksum, more scalars than the dimension, and a non-canonical
// NaN half.
func hostileSparseFrames() map[string][]byte {
	out := map[string][]byte{}
	for name, f := range sparseFrames(40) {
		out[name+"/cut"] = f[:len(f)-checkpoint.TrailerLen-7]
		flipped := append([]byte(nil), f...)
		flipped[len(f)-1] ^= 0x10
		out[name+"/bad-crc"] = flipped
	}
	vals := []float64{1, 2, 3}
	for _, enc := range []Enc{EncF64, EncF16} {
		out["count-over-dim-"+enc.String()] = Encode(&SparseUpdateMsg{Dim: 2, Enc: enc, Values: vals})
	}
	out["nan-half"] = withHalves(&SparseGlobalMsg{Dim: 4, Enc: EncF16, Values: vals}, 0x3c00, 0x7e01, 0x4000)
	return out
}

// agreeWithDecode reads in frame by frame through one FrameReader and
// through Decode, failing unless both return the same messages, then the
// same error: the same errors.Is class and text. Where Decode fails for
// want of bytes, a stream read must report the truncation instead (or the
// header's own error, which a stream reads first).
func agreeWithDecode(t *testing.T, in []byte, limit int) {
	t.Helper()
	fr := FrameReader{Alloc: func(n int) []float64 { return make([]float64, n, n+1) }}
	r := bytes.NewReader(in)
	rest := in
	for {
		want, next, werr := Decode(rest, limit)
		got, gerr := fr.Read(r, limit)
		if werr == nil {
			if gerr != nil {
				t.Fatalf("FrameReader failed on a frame Decode accepts: %v", gerr)
			}
			if !bytes.Equal(Encode(got), Encode(want)) {
				t.Fatalf("FrameReader and Decode disagree:\n got  %#v\n want %#v", got, want)
			}
			if r.Len() != len(next) {
				t.Fatalf("FrameReader left %d bytes, Decode %d", r.Len(), len(next))
			}
			rest = next
			continue
		}
		if got != nil {
			t.Fatalf("FrameReader returned %T with error %v", got, gerr)
		}
		wantErr := werr
		if len(rest) > 0 && (len(rest) < checkpoint.HeaderLen+checkpoint.TrailerLen || strings.HasSuffix(werr.Error(), "overruns buffer")) {
			wantErr = fmt.Errorf("%w: truncated frame", ErrCorrupt)
			if len(rest) < checkpoint.HeaderLen {
				wantErr = fmt.Errorf("%w: truncated header", ErrCorrupt)
			} else if _, _, herr := checkpoint.ParseHeader(rest, limit); herr != nil {
				wantErr = herr
			}
		}
		if gerr == nil || gerr.Error() != wantErr.Error() {
			t.Fatalf("FrameReader error %v, want %v", gerr, wantErr)
		}
		for _, class := range []error{ErrCorrupt, ErrVersion, ErrUnknownKind, ErrTooLarge, io.EOF} {
			if errors.Is(gerr, class) != errors.Is(wantErr, class) {
				t.Fatalf("FrameReader error %v is not of %v's class", gerr, wantErr)
			}
		}
		return
	}
}

// TestFrameReaderMatchesDecode runs the differential over the checked-in
// corpora, over dense and sparse frames that span several stream chunks,
// and over damaged sparse frames.
func TestFrameReaderMatchesDecode(t *testing.T) {
	seeds := corpusSeeds(t)
	for _, n := range []int{0, 1, frameChunk / 8, frameChunk/8 + 1, 3*frameChunk/8 - 5} {
		for _, f := range denseFrames(n) {
			seeds = append(seeds, f, append(append([]byte(nil), f...), f...))
		}
	}
	for _, n := range []int{0, 1, frameChunk / 8, frameChunk / 2, frameChunk/2 + 1} {
		for _, f := range sparseFrames(n) {
			seeds = append(seeds, f, append(append([]byte(nil), f...), f...))
		}
	}
	for _, f := range hostileSparseFrames() {
		seeds = append(seeds, f)
	}
	for _, in := range seeds {
		for _, limit := range []int{0, 64, joinLimitForTest} {
			agreeWithDecode(t, in, limit)
		}
	}
}

// joinLimitForTest is a tight payload limit that admits small frames only.
const joinLimitForTest = 1 << 10

// FuzzFrameReader holds the stream reader to Decode on arbitrary bytes.
func FuzzFrameReader(f *testing.F) {
	for _, s := range corpusSeeds(f) {
		f.Add(s)
	}
	for _, fr := range denseFrames(40) {
		f.Add(fr)
	}
	for _, fr := range sparseFrames(40) {
		f.Add(fr)
	}
	for _, fr := range hostileSparseFrames() {
		f.Add(fr)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 1<<20 {
			t.Skip("oversized input")
		}
		// Bounded limits: a stream read allocates what a header declares
		// before learning that the bytes run out.
		agreeWithDecode(t, in, 1<<20)
		agreeWithDecode(t, in, 64)
	})
}

// TestFrameReaderTruncatedAndFlipped: a dense frame cut at any byte fails
// as a truncated header or frame (Decode: as corrupt), a flipped bit
// anywhere behind the header as a checksum mismatch, a flipped bit in the
// header as one of the typed failures, and none hands out a message.
func TestFrameReaderTruncatedAndFlipped(t *testing.T) {
	small := denseFrames(300)
	large := denseFrames(frameChunk/8 + 40) // two chunks
	var fr FrameReader
	read := func(b []byte) error {
		m, err := fr.Read(bytes.NewReader(b), 0)
		if m != nil {
			t.Fatalf("message %T handed out with error %v", m, err)
		}
		if dm, _, derr := Decode(b, 0); dm != nil || (derr == nil) != (err == nil) {
			t.Fatalf("Decode returned (%T, %v) where FrameReader failed with %v", dm, derr, err)
		}
		return err
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrUnknownKind) || errors.Is(err, ErrTooLarge)
	}
	for name, frame := range small {
		for at := range frame {
			want := "corrupt frame: truncated frame"
			switch {
			case at == 0:
				want = io.EOF.Error()
			case at < checkpoint.HeaderLen:
				want = "corrupt frame: truncated header"
			}
			if err := read(frame[:at]); err == nil || err.Error() != want {
				t.Fatalf("%s cut at %d: %v, want %s", name, at, err, want)
			}
			if _, _, err := Decode(frame[:at], 0); at > 0 && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode of %s cut at %d: %v, want ErrCorrupt", name, at, err)
			}
		}
		flip := func(f []byte, i int) {
			flipped := append([]byte(nil), f...)
			flipped[i] ^= 1 << (i % 8)
			if err := read(flipped); err == nil || err.Error() != "corrupt frame: checksum mismatch" {
				t.Fatalf("%s with byte %d of %d flipped: %v, want checksum mismatch", name, i, len(f), err)
			}
		}
		for i := checkpoint.HeaderLen; i < len(frame); i++ {
			flip(frame, i)
		}
		for i := range checkpoint.HeaderLen {
			for bit := range 8 {
				flipped := append([]byte(nil), frame...)
				flipped[i] ^= 1 << bit
				if err := read(flipped); !typed(err) {
					t.Fatalf("%s with bit %d of header byte %d flipped: %v, want a typed failure", name, bit, i, err)
				}
			}
		}
		// Around the fixed fields, the count, the chunk boundary and the
		// trailer of a frame that streams through two chunks.
		big := large[name]
		floats := len(big) - checkpoint.TrailerLen - 8*(frameChunk/8+40) // the first float's offset
		for _, at := range []int{checkpoint.HeaderLen + 8, floats - 1, floats, floats + frameChunk - 1, floats + frameChunk,
			floats + frameChunk + 1, len(big) - checkpoint.TrailerLen, len(big) - 1} {
			if err := read(big[:at]); err == nil || err.Error() != "corrupt frame: truncated frame" {
				t.Errorf("%s (two chunks) cut at %d: %v, want truncated frame", name, at, err)
			}
			flip(big, at)
		}
	}
}

// TestFrameReaderLimitBeforeAlloc: an over-limit header — one payload
// byte over the caller's limit, or 0xFFFFFFF0 bytes under any limit —
// fails with ErrTooLarge before the destination is asked for, as Decode
// refuses it, and a frame within the limit asks exactly once, for its
// scalar count.
func TestFrameReaderLimitBeforeAlloc(t *testing.T) {
	calls := 0
	fr := FrameReader{Alloc: func(n int) []float64 {
		calls++
		return make([]float64, n)
	}}
	tooLarge := func(what string, frame []byte, limit int) {
		t.Helper()
		calls = 0
		if _, err := fr.Read(bytes.NewReader(frame), limit); !errors.Is(err, ErrTooLarge) || calls != 0 {
			t.Errorf("%s: err %v after %d Alloc call(s), want ErrTooLarge before any", what, err, calls)
		}
		if _, _, err := Decode(frame, limit); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: Decode err %v, want ErrTooLarge", what, err)
		}
	}
	frames := denseFrames(500)
	for name, f := range sparseFrames(500) {
		frames[name] = f
	}
	for name, frame := range frames {
		n := int(binary.LittleEndian.Uint32(frame[6:]))
		tooLarge(name+" over limit", frame, n-1)
		huge := append([]byte(nil), frame...)
		binary.LittleEndian.PutUint32(huge[6:], 0xFFFFFFF0)
		for _, limit := range []int{0, n} {
			tooLarge(fmt.Sprintf("%s declaring 0xFFFFFFF0 bytes, limit %d", name, limit), huge, limit)
		}
		calls = 0
		if _, err := fr.Read(bytes.NewReader(frame), n); err != nil || calls != 1 {
			t.Errorf("%s at limit: err %v after %d Alloc call(s), want one", name, err, calls)
		}
		if _, _, err := Decode(frame, n); err != nil {
			t.Errorf("%s at limit: Decode err %v", name, err)
		}
	}
	// A sparse head that fails Decode's checks — here more scalars than
	// the dimension — is refused before the destination is asked for.
	for _, enc := range []Enc{EncF64, EncF16} {
		calls = 0
		frame := Encode(&SparseUpdateMsg{Dim: 2, Enc: enc, Values: []float64{1, 2, 3}})
		if _, err := fr.Read(bytes.NewReader(frame), 0); !errors.Is(err, ErrCorrupt) || calls != 0 {
			t.Errorf("%s column over its dimension: err %v after %d Alloc call(s), want ErrCorrupt before any", enc, err, calls)
		}
	}
}

// TestStoreAndWireFramesDoNotMix: the checkpoint store writes the wire's
// frame under kinds no message uses, so its snapshot file and its log
// record are each refused by both decoders as an unknown kind, and a wire
// frame in a store's snapshot file is damage that recovery falls back
// past.
func TestStoreAndWireFramesDoNotMix(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteSnapshot(1, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(Encode(&JoinMsg{Name: "a record"})); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, name := range []string{"snap-00000001.ckpt", "wal-00000001.log"} {
		frame, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Decode(frame, 0); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("%s: Decode err %v, want ErrUnknownKind", name, err)
		}
		if _, err := new(FrameReader).Read(bytes.NewReader(frame), 0); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("%s: FrameReader err %v, want ErrUnknownKind", name, err)
		}
	}

	// A newer generation whose snapshot file holds a wire frame.
	if err := os.WriteFile(filepath.Join(dir, "snap-00000002.ckpt"), Encode(&GlobalMsg{Round: 2, Payload: []float64{1}}), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rounds, payload, wal, found, err := st.Load()
	if err != nil || !found || rounds != 1 || string(payload) != "snapshot" || len(wal) != 1 {
		t.Fatalf("Load past a wire frame: (%d, %q, %d records, %v, %v), want generation 1 with its record", rounds, payload, len(wal), found, err)
	}
}

// TestFrameReaderKeepsBitPatterns streams dense frames whose floats are
// NaN payloads, ±0, subnormals and ±Inf straight into a reused, dirty
// vector: every scalar arrives bit for bit at lengths 1, odd, and past
// one chunk, and a stream cut inside the floats is ErrCorrupt.
func TestFrameReaderKeepsBitPatterns(t *testing.T) {
	patterns := []uint64{0x7ff8000000000001, 0xfff4000000000abc, 0, 1 << 63, 1, 0x800fffffffffffff,
		0x7ff0000000000000, 0xfff0000000000000, 0x3fe0000000000000}
	dst := make([]float64, 3*frameChunk/8)
	fr := FrameReader{Alloc: func(n int) []float64 { return dst[:n] }}
	for _, n := range []int{1, 9, frameChunk/8 + 3} {
		p := make([]float64, n)
		for i := range p {
			p[i] = math.Float64frombits(patterns[i%len(patterns)] ^ uint64(i/len(patterns)))
		}
		for i := range dst {
			dst[i] = math.Float64frombits(0x5555555555555555)
		}
		frame := Encode(&GlobalMsg{Round: 3, Participants: 2, Payload: p})
		m, err := fr.Read(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := m.(*GlobalMsg).Payload
		for i := range p {
			if math.Float64bits(got[i]) != math.Float64bits(p[i]) {
				t.Fatalf("n=%d scalar %d: read %#x, sent %#x", n, i, math.Float64bits(got[i]), math.Float64bits(p[i]))
			}
		}
		cut := len(frame) - checkpoint.TrailerLen - 8*n + 8*n/2 + 3
		if _, err := fr.Read(bytes.NewReader(frame[:cut]), 0); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("n=%d cut inside the floats: %v, want ErrCorrupt", n, err)
		}
	}
}
