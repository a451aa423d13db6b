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
		if len(rest) > 0 && (len(rest) < headerLen+trailerLen || strings.HasSuffix(werr.Error(), "overruns buffer")) {
			wantErr = fmt.Errorf("%w: truncated frame", ErrCorrupt)
			if len(rest) < headerLen {
				wantErr = fmt.Errorf("%w: truncated header", ErrCorrupt)
			} else if _, _, herr := checkHeader(rest[:headerLen], limit); herr != nil {
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
// corpora and over dense frames that span several stream chunks.
func TestFrameReaderMatchesDecode(t *testing.T) {
	seeds := corpusSeeds(t)
	for _, n := range []int{0, 1, frameChunk / 8, frameChunk/8 + 1, 3*frameChunk/8 - 5} {
		for _, f := range denseFrames(n) {
			seeds = append(seeds, f, append(append([]byte(nil), f...), f...))
		}
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
// as a truncated header or frame, a flipped bit anywhere behind the header
// as a checksum mismatch, and neither hands out a message.
func TestFrameReaderTruncatedAndFlipped(t *testing.T) {
	small := denseFrames(300)
	large := denseFrames(frameChunk/8 + 40) // two chunks
	var fr FrameReader
	read := func(b []byte) error {
		m, err := fr.Read(bytes.NewReader(b), 0)
		if m != nil {
			t.Fatalf("message %T handed out with error %v", m, err)
		}
		return err
	}
	for name, frame := range small {
		for at := range frame {
			want := "wire: corrupt frame: truncated frame"
			switch {
			case at == 0:
				want = io.EOF.Error()
			case at < headerLen:
				want = "wire: corrupt frame: truncated header"
			}
			if err := read(frame[:at]); err == nil || err.Error() != want {
				t.Fatalf("%s cut at %d: %v, want %s", name, at, err, want)
			}
		}
		flip := func(f []byte, i int) {
			flipped := append([]byte(nil), f...)
			flipped[i] ^= 1 << (i % 8)
			if err := read(flipped); err == nil || err.Error() != "wire: corrupt frame: checksum mismatch" {
				t.Fatalf("%s with byte %d of %d flipped: %v, want checksum mismatch", name, i, len(f), err)
			}
		}
		for i := headerLen; i < len(frame); i++ {
			flip(frame, i)
		}
		// Around the fixed fields, the count, the chunk boundary and the
		// trailer of a frame that streams through two chunks.
		big := large[name]
		floats := len(big) - trailerLen - 8*(frameChunk/8+40) // the first float's offset
		for _, at := range []int{headerLen + 8, floats - 1, floats, floats + frameChunk - 1, floats + frameChunk,
			floats + frameChunk + 1, len(big) - trailerLen, len(big) - 1} {
			if err := read(big[:at]); err == nil || err.Error() != "wire: corrupt frame: truncated frame" {
				t.Errorf("%s (two chunks) cut at %d: %v, want truncated frame", name, at, err)
			}
			flip(big, at)
		}
	}
}

// TestFrameReaderLimitBeforeAlloc: an over-limit header fails with
// ErrTooLarge before the destination is asked for, and a frame within the
// limit asks exactly once, for its float count.
func TestFrameReaderLimitBeforeAlloc(t *testing.T) {
	calls := 0
	fr := FrameReader{Alloc: func(n int) []float64 {
		calls++
		return make([]float64, n)
	}}
	for name, frame := range denseFrames(500) {
		calls = 0
		n := int(binary.LittleEndian.Uint32(frame[6:]))
		if _, err := fr.Read(bytes.NewReader(frame), n-1); !errors.Is(err, ErrTooLarge) || calls != 0 {
			t.Errorf("%s over limit: err %v after %d Alloc call(s), want ErrTooLarge before any", name, err, calls)
		}
		if _, err := fr.Read(bytes.NewReader(frame), n); err != nil || calls != 1 {
			t.Errorf("%s at limit: err %v after %d Alloc call(s), want one", name, err, calls)
		}
	}
}
