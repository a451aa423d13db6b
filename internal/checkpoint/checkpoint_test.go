package checkpoint

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"apf/internal/core"
	"apf/internal/perturb"
)

// TestFrameRoundTrip encodes frames of several kinds back to back and
// reads them off again.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("hello"), nil, {0, 1, 2, 255}, make([]byte, 1000)}
	kinds := []uint16{KindManager, KindUser, KindUser + 1, KindUser + 7}
	var buf []byte
	for i, p := range payloads {
		buf = AppendFrame(buf, kinds[i], p)
	}
	for i, want := range payloads {
		kind, payload, rest, err := ReadFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != kinds[i] {
			t.Fatalf("frame %d: kind %d, want %d", i, kind, kinds[i])
		}
		if len(payload) != len(want) {
			t.Fatalf("frame %d: payload length %d, want %d", i, len(payload), len(want))
		}
		for j := range want {
			if payload[j] != want[j] {
				t.Fatalf("frame %d: payload[%d] = %d, want %d", i, j, payload[j], want[j])
			}
		}
		buf = rest
	}
	if _, _, _, err := ReadFrame(buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestFrameCorruption flips every byte of an encoded frame in turn; each
// damaged copy must be rejected, never silently decoded.
func TestFrameCorruption(t *testing.T) {
	frame := AppendFrame(nil, KindManager, []byte("state bytes"))
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		_, _, _, err := ReadFrame(bad)
		if err == nil {
			t.Fatalf("flip byte %d: frame still decoded", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("flip byte %d: err = %v, want ErrCorrupt or ErrVersion", i, err)
		}
	}
	for n := 1; n < len(frame); n++ {
		if _, _, _, err := ReadFrame(frame[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// TestWriterReaderRoundTrip exercises every primitive, including NaN bit
// patterns, which must survive bit-exactly.
func TestWriterReaderRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with payload bits
	var w Writer
	w.U16(0xbeef)
	w.U64(1 << 63)
	w.Int(-42)
	w.Bool(true)
	w.Bool(false)
	w.F64(nan)
	w.F64s([]float64{1.5, math.Inf(-1), 0})
	w.Ints([]int{-1, 0, 7})
	w.U64s([]uint64{3, 1 << 40})
	w.String("client-a")
	w.String("")

	r := NewReader(w.Bytes())
	if got := r.U16(); got != 0xbeef {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U64(); got != 1<<63 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatalf("Bool round trip failed")
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(nan) {
		t.Fatalf("F64 NaN bits %#x, want %#x", math.Float64bits(got), math.Float64bits(nan))
	}
	if got := r.F64s(); len(got) != 3 || got[0] != 1.5 || !math.IsInf(got[1], -1) || got[2] != 0 {
		t.Fatalf("F64s = %v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{-1, 0, 7}) {
		t.Fatalf("Ints = %v", got)
	}
	if got := r.U64s(); !reflect.DeepEqual(got, []uint64{3, 1 << 40}) {
		t.Fatalf("U64s = %v", got)
	}
	if got := r.String(); got != "client-a" {
		t.Fatalf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestReaderGuards checks the sticky error, trailing-garbage detection,
// and the slice-length bound (a corrupt length must not allocate).
func TestReaderGuards(t *testing.T) {
	r := NewReader([]byte{1, 2}) // too short for a U64
	if got := r.U64(); got != 0 {
		t.Fatalf("truncated U64 = %d, want 0", got)
	}
	if r.Err() == nil || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", r.Err())
	}
	if got := r.Int(); got != 0 { // sticky: still zero, no panic
		t.Fatalf("post-error Int = %d", got)
	}

	var w Writer
	w.Int(1 << 50) // claimed slice length far beyond the payload
	r = NewReader(w.Bytes())
	if got := r.F64s(); got != nil {
		t.Fatalf("overrun F64s = %v, want nil", got)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("overrun Err = %v, want ErrCorrupt", r.Err())
	}

	w = Writer{}
	w.Int(5)
	buf := append(w.Bytes(), 0xff) // trailing garbage
	r = NewReader(buf)
	_ = r.Int()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done with trailing byte = %v, want ErrCorrupt", err)
	}
}

func testManagerState() *core.State {
	return &core.State{
		Dim:       4,
		Ref:       []float64{1, -2.5, 0, 3.25},
		LastCheck: []float64{0.5, 0, -1, 2},
		Tracker: perturb.EMAState{
			Alpha:  0.85,
			E:      []float64{0.1, -0.2, 0.3, 0},
			A:      []float64{0.4, 0.5, 0, 0.6},
			Seen:   9,
			Seeded: []uint64{^uint64(0), 0, 5, 0},
		},
		Period:      []float64{1, 2, 4, 8},
		UnfreezeAt:  []int{3, 0, 12, 7},
		RandomUntil: []int{0, 0, 15, 0},
		Threshold:   0.3,
		CheckCount:  4,
		Initialized: true,
		InitRound:   1,
		LastRound:   11,
		WordGen:     []uint32{12},
	}
}

// TestManagerCodecRoundTrip checks the manager snapshot codec is
// bit-exact and feeds core.Restore.
func TestManagerCodecRoundTrip(t *testing.T) {
	s := testManagerState()
	got, err := DecodeManager(EncodeManager(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

// TestManagerCodecRejectsDamage flips bytes across the encoded manager
// frame; every damaged copy must fail to decode.
func TestManagerCodecRejectsDamage(t *testing.T) {
	buf := EncodeManager(testManagerState())
	for i := 0; i < len(buf); i += 7 {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x10
		if _, err := DecodeManager(bad); err == nil {
			t.Fatalf("flip byte %d: damaged manager frame decoded", i)
		}
	}
	if _, err := DecodeManager(append(buf, 0)); err == nil {
		t.Fatalf("trailing byte after manager frame accepted")
	}
}

// previousVersionFrame re-stamps a frame with the previous format version
// (the version check precedes the checksum, so the CRC is left alone).
func previousVersionFrame(frame []byte) []byte {
	old := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint16(old[4:], Version-1)
	return old
}

// TestOldFormatRefused: a frame stamped with the previous format version
// is refused with ErrVersion, and a manager payload that stops where that
// format did (before the word generations) is corrupt — never decoded
// with the missing fields defaulted.
func TestOldFormatRefused(t *testing.T) {
	frame := EncodeManager(testManagerState())
	old := previousVersionFrame(frame)
	if _, _, _, err := ReadFrame(old); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 frame: err = %v, want ErrVersion", err)
	}
	if _, err := DecodeManager(old); !errors.Is(err, ErrVersion) {
		t.Fatalf("version-1 manager frame: err = %v, want ErrVersion", err)
	}

	payload := frame[frameHeaderLen : len(frame)-frameTrailLen]
	tailLen := 8 + 8*len(testManagerState().WordGen) // Ints: count + elements
	short := AppendFrame(nil, KindManager, payload[:len(payload)-tailLen])
	if _, err := DecodeManager(short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("manager payload without word generations: err = %v, want ErrCorrupt", err)
	}
}

// TestStoreRoundTrip writes a snapshot plus WAL records, reloads with a
// fresh store, and checks everything comes back; then appends through the
// recovered handle and reloads again.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, found, err := st.Load(); err != nil || found {
		t.Fatalf("empty store Load: found=%v err=%v", found, err)
	}
	if err := st.Append(KindUser, []byte("early")); err == nil {
		t.Fatalf("append before any snapshot succeeded")
	}
	if err := st.WriteSnapshot(0, KindUser, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(KindUser+1, []byte("rec0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(KindUser+2, []byte("rec1")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rounds, kind, payload, wal, found, err := st2.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if rounds != 0 || kind != KindUser || string(payload) != "base" {
		t.Fatalf("snapshot = (%d, %d, %q)", rounds, kind, payload)
	}
	if len(wal) != 2 || string(wal[0].Payload) != "rec0" || string(wal[1].Payload) != "rec1" {
		t.Fatalf("wal = %v", wal)
	}

	// Append continues the recovered generation's log.
	if err := st2.Append(KindUser+3, []byte("rec2")); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	_, _, _, wal, _, err = st3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 3 || string(wal[2].Payload) != "rec2" {
		t.Fatalf("wal after continued append = %v", wal)
	}
}

// TestStoreRotationPrunes checks that a newer snapshot supersedes the old
// generation and removes its files.
func TestStoreRotationPrunes(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteSnapshot(0, KindUser, []byte("gen0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(KindUser, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(5, KindUser, []byte("gen5")); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(5, KindUser, []byte("again")); err == nil {
		t.Fatalf("non-increasing snapshot accepted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // snap-00000005.ckpt + wal-00000005.log
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("store holds %v, want exactly the new generation", names)
	}
	rounds, _, payload, wal, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if rounds != 5 || string(payload) != "gen5" || len(wal) != 0 {
		t.Fatalf("recovered (%d, %q, %d records)", rounds, payload, len(wal))
	}
}

// TestStoreTornTail simulates kill -9 mid-append: garbage (and a valid
// prefix of a frame) after the last good record must truncate the replay,
// not fail it.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot(0, KindUser, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(KindUser, []byte("good")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	walPath := filepath.Join(dir, "wal-00000000.log")
	torn := AppendFrame(nil, KindUser, []byte("torn-away"))
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-3]); err != nil { // frame cut short
		t.Fatal(err)
	}
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, _, _, wal, found, err := st2.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if len(wal) != 1 || string(wal[0].Payload) != "good" {
		t.Fatalf("replay over torn tail = %v, want the one good record", wal)
	}

	// Double-crash: appending after a torn-tail recovery must land where
	// the next recovery can read it — the torn bytes are trimmed, not
	// appended past.
	if err := st2.Append(KindUser, []byte("after-recovery")); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	_, _, _, wal, found, err = st3.Load()
	if err != nil || !found {
		t.Fatalf("second Load: found=%v err=%v", found, err)
	}
	if len(wal) != 2 || string(wal[1].Payload) != "after-recovery" {
		t.Fatalf("replay after torn-tail append = %v, want [good after-recovery]", wal)
	}
}

// TestStoreDamagedSnapshotFallsBack plants two generations by hand and
// corrupts the newer snapshot; Load must recover the older one.
func TestStoreDamagedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	writeGen := func(rounds int, payload string) {
		frame := AppendFrame(nil, KindUser, []byte(payload))
		name := filepath.Join(dir, "snap-0000000"+string(rune('0'+rounds))+".ckpt")
		if err := os.WriteFile(name, frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeGen(0, "old")
	writeGen(5, "new")
	newSnap := filepath.Join(dir, "snap-00000005.ckpt")
	buf, err := os.ReadFile(newSnap)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(newSnap, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rounds, _, payload, _, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if rounds != 0 || string(payload) != "old" {
		t.Fatalf("recovered (%d, %q), want the older intact generation", rounds, payload)
	}
}
