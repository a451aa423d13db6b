package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFrameRoundTrip encodes frames of several kinds back to back and
// reads them off again.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("hello"), nil, {0, 1, 2, 255}, make([]byte, 1000)}
	kinds := []uint16{1, KindUser, KindUser + 1, KindUser + 7}
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
	frame := AppendFrame(nil, KindUser, []byte("state bytes"))
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

// previousVersionFrame re-stamps a frame with the previous format version
// (the version check precedes the checksum, so the CRC is left alone).
func previousVersionFrame(frame []byte) []byte {
	old := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint16(old[4:], Version-1)
	return old
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

// openStore opens a store over dir, closed when the test ends.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// mustAppend appends one KindUser record per payload.
func mustAppend(t *testing.T, st *Store, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := st.Append(KindUser, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// mustLoad recovers dir with a fresh store and returns the snapshot round
// count, payload and the replayed record payloads.
func mustLoad(t *testing.T, dir string) (*Store, int, string, []string) {
	t.Helper()
	st := openStore(t, dir)
	rounds, _, payload, wal, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	var recs []string
	for _, r := range wal {
		recs = append(recs, string(r.Payload))
	}
	return st, rounds, string(payload), recs
}

// storeFiles lists the names in a store directory.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestStoreRotationBounded checks that rotation keeps the directory at one
// generation plus the spare snapshot file, however many rotations run, and
// that the newest generation is what recovery finds.
func TestStoreRotationBounded(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	for i := 0; i < 10; i++ {
		if err := st.WriteSnapshot(3*i, KindUser, []byte(fmt.Sprintf("gen%d", 3*i))); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, "a", "b", "c")
	}
	if err := st.WriteSnapshot(27, KindUser, []byte("again")); err == nil {
		t.Fatalf("non-increasing snapshot accepted")
	}
	want := []string{"snap-00000027.ckpt", "snap.spare", "wal-00000027.log"}
	if got := storeFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("store holds %v after 10 rotations, want %v", got, want)
	}
	_, rounds, payload, recs := mustLoad(t, dir)
	if rounds != 27 || payload != "gen27" || !reflect.DeepEqual(recs, []string{"a", "b", "c"}) {
		t.Fatalf("recovered (%d, %q, %v)", rounds, payload, recs)
	}
}

// TestStoreStaleRecordsNotReplayed: records of equal length make a rotated
// generation's records line up exactly with the retired ones still behind
// them in the recycled log. Replay must stop at the first of those.
func TestStoreStaleRecordsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.WriteSnapshot(0, KindUser, []byte("gen0")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "old-0", "old-1", "old-2", "old-3")
	if err := st.WriteSnapshot(4, KindUser, []byte("gen4")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "new-0", "new-1")
	fi, err := os.Stat(filepath.Join(dir, "wal-00000004.log"))
	if err != nil {
		t.Fatal(err)
	}
	if recLen := len(AppendRecord(nil, 4, KindUser, []byte("new-0"))); fi.Size() != int64(4*recLen) {
		t.Fatalf("recycled wal is %d bytes, want the four %d-byte records it held", fi.Size(), recLen)
	}
	st.Close()
	_, rounds, _, recs := mustLoad(t, dir)
	if rounds != 4 || !reflect.DeepEqual(recs, []string{"new-0", "new-1"}) {
		t.Fatalf("replayed generation %d records %v, want 4 [new-0 new-1]", rounds, recs)
	}
}

// TestStoreRecycledSnapshotLongerThanFrame: a small snapshot written over
// the spare that held a large one loads; the stale bytes behind its frame
// are ignored.
func TestStoreRecycledSnapshotLongerThanFrame(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	for i, p := range []string{strings.Repeat("x", 4096), "small", "tiny"} {
		if err := st.WriteSnapshot(i, KindUser, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "snap-00000002.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if frame := len(AppendFrame(nil, KindUser, []byte("tiny"))); fi.Size() <= int64(frame) {
		t.Fatalf("snapshot file is %d bytes for a %d-byte frame; it was not written over the large one", fi.Size(), frame)
	}
	st.Close()
	if _, rounds, payload, _ := mustLoad(t, dir); rounds != 2 || payload != "tiny" {
		t.Fatalf("recovered (%d, %q), want (2, \"tiny\")", rounds, payload)
	}
}

// TestStoreCrashWhileOverwritingSpare: a process killed with half of the
// next snapshot written over the spare recovers the current generation
// with its records, and the next rotation succeeds over the torn spare.
func TestStoreCrashWhileOverwritingSpare(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.WriteSnapshot(0, KindUser, []byte("gen0")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "r0")
	if err := st.WriteSnapshot(3, KindUser, []byte("gen3")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "r3", "r4")
	next := AppendFrame(nil, KindUser, []byte("the generation-6 snapshot"))
	f, err := os.OpenFile(filepath.Join(dir, spareName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(next[:len(next)/2], 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st.Close()

	st2, rounds, payload, recs := mustLoad(t, dir)
	if rounds != 3 || payload != "gen3" || !reflect.DeepEqual(recs, []string{"r3", "r4"}) {
		t.Fatalf("recovered (%d, %q, %v), want (3, \"gen3\", [r3 r4])", rounds, payload, recs)
	}
	if err := st2.WriteSnapshot(6, KindUser, []byte("gen6")); err != nil {
		t.Fatalf("rotation after the crash: %v", err)
	}
	mustAppend(t, st2, "r6")
	st2.Close()
	if _, rounds, payload, recs := mustLoad(t, dir); rounds != 6 || payload != "gen6" || !reflect.DeepEqual(recs, []string{"r6"}) {
		t.Fatalf("recovered (%d, %q, %v), want (6, \"gen6\", [r6])", rounds, payload, recs)
	}
	want := []string{"snap-00000006.ckpt", "snap.spare", "wal-00000006.log"}
	if got := storeFiles(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("store holds %v, want %v", got, want)
	}
}

// TestStoreFinishesInterruptedRotation: a crash after a new snapshot was
// published, but before (or while) the previous generation was retired,
// recovers the new generation with no records, and Load completes the
// retirement so the directory is back to its bound.
func TestStoreFinishesInterruptedRotation(t *testing.T) {
	for _, walMoved := range []bool{false, true} {
		dir := t.TempDir()
		st := openStore(t, dir)
		if err := st.WriteSnapshot(0, KindUser, []byte("gen0")); err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSnapshot(3, KindUser, []byte("gen3")); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, "r3")
		st.Close()
		// The rotation to 6 published its snapshot from the spare, and
		// recycled the log only when walMoved.
		spare := filepath.Join(dir, spareName)
		if err := os.WriteFile(spare, AppendFrame(nil, KindUser, []byte("gen6")), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(spare, filepath.Join(dir, "snap-00000006.ckpt")); err != nil {
			t.Fatal(err)
		}
		if walMoved {
			if err := os.Rename(filepath.Join(dir, "wal-00000003.log"), filepath.Join(dir, "wal-00000006.log")); err != nil {
				t.Fatal(err)
			}
		}

		st2, rounds, payload, recs := mustLoad(t, dir)
		if rounds != 6 || payload != "gen6" || len(recs) != 0 {
			t.Fatalf("walMoved=%v: recovered (%d, %q, %v), want (6, \"gen6\", [])", walMoved, rounds, payload, recs)
		}
		want := []string{"snap-00000006.ckpt", "snap.spare", "wal-00000006.log"}
		if got := storeFiles(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("walMoved=%v: store holds %v after recovery, want %v", walMoved, got, want)
		}
		mustAppend(t, st2, "r6")
		st2.Close()
		if _, _, _, recs := mustLoad(t, dir); !reflect.DeepEqual(recs, []string{"r6"}) {
			t.Fatalf("walMoved=%v: replay after recovery = %v, want [r6]", walMoved, recs)
		}
	}
}

// TestStoreRefusesOtherVersion: a directory written by another format
// version is refused with ErrVersion, never taken for an empty store.
func TestStoreRefusesOtherVersion(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.WriteSnapshot(0, KindUser, []byte("base")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "snap-00000000.ckpt")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, previousVersionFrame(buf), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, found, err := openStore(t, dir).Load()
	if !errors.Is(err, ErrVersion) || found {
		t.Fatalf("Load over a version-%d snapshot: found=%v err=%v, want ErrVersion", Version-1, found, err)
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
