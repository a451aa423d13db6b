package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestFrameRoundTrip seals frames of several kinds — wire messages and
// the store's own — back to back and reads them off again.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("hello"), nil, {0, 1, 2, 255}, make([]byte, 1000)}
	kinds := []byte{1, 11, kindSnapshot, kindRecord}
	var buf []byte
	for i, p := range payloads {
		buf = appendFrame(buf, kinds[i], p)
	}
	for i, want := range payloads {
		kind, payload, rest, err := ReadFrame(buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kind != kinds[i] {
			t.Fatalf("frame %d: kind %d, want %d", i, kind, kinds[i])
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: payload %v, want %v", i, payload, want)
		}
		buf = rest
	}
	if _, _, _, err := ReadFrame(buf, 0); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestFrameCorruption holds ReadFrame — the one whole-frame check behind
// wire.Decode and Store.Load — to a typed refusal of every damaged frame,
// never a payload: every bit flip anywhere, every truncation, another
// version, and a declared length over the limit, which is refused from
// the header alone (0xFFFFFFF0 included, a length that must never reach
// an int unbounded). The same frame reads under the default limit.
func TestFrameCorruption(t *testing.T) {
	payload := []byte("state bytes")
	frame := appendFrame(nil, 4, payload)
	refused := func(what string, bad []byte, limit int, want error) {
		t.Helper()
		kind, p, rest, err := ReadFrame(bad, limit)
		if !errors.Is(err, want) || kind != 0 || p != nil || rest != nil {
			t.Fatalf("%s: (%d, %q, %q, %v), want only %v", what, kind, p, rest, err, want)
		}
	}
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			bad := slices.Clone(frame)
			bad[i] ^= 1 << bit
			_, _, _, err := ReadFrame(bad, 0)
			if err == nil {
				t.Fatalf("flip bit %d of byte %d: frame still decoded", bit, i)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("flip bit %d of byte %d: untyped error %v", bit, i, err)
			}
		}
	}
	if _, _, _, err := ReadFrame(nil, 0); err != io.EOF {
		t.Fatalf("empty buffer: err = %v, want io.EOF", err)
	}
	for n := 1; n < len(frame); n++ {
		refused(fmt.Sprintf("truncated to %d bytes", n), frame[:n], 0, ErrCorrupt)
	}
	for _, v := range []byte{Version - 1, Version + 1} {
		bad := slices.Clone(frame)
		bad[4] = v
		refused(fmt.Sprintf("version %d", v), bad, 0, ErrVersion)
	}
	refused("payload one byte over the limit", frame, len(payload)-1, ErrTooLarge)
	for _, limit := range []int{0, len(payload), MaxPayload + 1} {
		if _, p, _, err := ReadFrame(frame, limit); err != nil || !bytes.Equal(p, payload) {
			t.Fatalf("limit %d: (%q, %v), want the payload", limit, p, err)
		}
	}
	huge := slices.Clone(frame)
	binary.LittleEndian.PutUint32(huge[6:], 0xFFFFFFF0)
	for _, limit := range []int{0, 64} {
		refused(fmt.Sprintf("declared length 0xFFFFFFF0, limit %d", limit), huge, limit, ErrTooLarge)
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
	old := slices.Clone(frame)
	old[4] = Version - 1
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
	if _, _, _, found, err := st.Load(); err != nil || found {
		t.Fatalf("empty store Load: found=%v err=%v", found, err)
	}
	if _, err := st.Append([]byte("early")); err == nil {
		t.Fatalf("append before any snapshot succeeded")
	}
	// The lengths the writes return are the bytes they put on disk.
	snapN, err := st.WriteSnapshot(0, []byte("base"))
	if err != nil {
		t.Fatal(err)
	}
	walN := 0
	for _, p := range []string{"rec0", "rec1"} {
		n, err := st.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		walN += n
	}
	st.Close()
	for name, want := range map[string]int{"snap-00000000.ckpt": snapN, "wal-00000000.log": walN} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(want) {
			t.Fatalf("%s holds %d bytes, the writes returned %d", name, fi.Size(), want)
		}
	}
	if want := 2 * (HeaderLen + recordStampLen + len("rec0") + TrailerLen); walN != want {
		t.Fatalf("two 4-byte records returned %d bytes, want %d", walN, want)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rounds, payload, wal, found, err := st2.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	if rounds != 0 || string(payload) != "base" {
		t.Fatalf("snapshot = (%d, %q)", rounds, payload)
	}
	if len(wal) != 2 || string(wal[0]) != "rec0" || string(wal[1]) != "rec1" {
		t.Fatalf("wal = %v", wal)
	}

	// Append continues the recovered generation's log.
	if _, err := st2.Append([]byte("rec2")); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	_, _, wal, _, err = st3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(wal) != 3 || string(wal[2]) != "rec2" {
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

// mustAppend appends one record per payload.
func mustAppend(t *testing.T, st *Store, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := st.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

// mustLoad recovers dir with a fresh store and returns the snapshot round
// count, payload and the replayed record payloads.
func mustLoad(t *testing.T, dir string) (*Store, int, string, []string) {
	t.Helper()
	st := openStore(t, dir)
	rounds, payload, wal, found, err := st.Load()
	if err != nil || !found {
		t.Fatalf("Load: found=%v err=%v", found, err)
	}
	var recs []string
	for _, r := range wal {
		recs = append(recs, string(r))
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
		if _, err := st.WriteSnapshot(3*i, []byte(fmt.Sprintf("gen%d", 3*i))); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, "a", "b", "c")
	}
	if _, err := st.WriteSnapshot(27, []byte("again")); err == nil {
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
	if _, err := st.WriteSnapshot(0, []byte("gen0")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "old-0", "old-1", "old-2", "old-3")
	if _, err := st.WriteSnapshot(4, []byte("gen4")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "new-0", "new-1")
	fi, err := os.Stat(filepath.Join(dir, "wal-00000004.log"))
	if err != nil {
		t.Fatal(err)
	}
	if recLen := len(appendRecord(nil, 4, []byte("new-0"))); fi.Size() != int64(4*recLen) {
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
		if _, err := st.WriteSnapshot(i, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(filepath.Join(dir, "snap-00000002.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if frame := len(appendFrame(nil, kindSnapshot, []byte("tiny"))); fi.Size() <= int64(frame) {
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
	if _, err := st.WriteSnapshot(0, []byte("gen0")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "r0")
	if _, err := st.WriteSnapshot(3, []byte("gen3")); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, "r3", "r4")
	next := appendFrame(nil, kindSnapshot, []byte("the generation-6 snapshot"))
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
	if _, err := st2.WriteSnapshot(6, []byte("gen6")); err != nil {
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
		if _, err := st.WriteSnapshot(0, []byte("gen0")); err != nil {
			t.Fatal(err)
		}
		if _, err := st.WriteSnapshot(3, []byte("gen3")); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, "r3")
		st.Close()
		// The rotation to 6 published its snapshot from the spare, and
		// recycled the log only when walMoved.
		spare := filepath.Join(dir, spareName)
		if err := os.WriteFile(spare, appendFrame(nil, kindSnapshot, []byte("gen6")), 0o644); err != nil {
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
	if _, err := st.WriteSnapshot(0, []byte("base")); err != nil {
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
	_, _, _, found, err := openStore(t, dir).Load()
	if !errors.Is(err, ErrVersion) || found {
		t.Fatalf("Load over a version-%d snapshot: found=%v err=%v, want ErrVersion", Version-1, found, err)
	}
}

// TestStoreTornTail simulates kill -9 mid-append: a tail behind the last
// good record — a frame cut short, or a header declaring 0xFFFFFFF0 bytes
// — must end the replay, not fail it.
func TestStoreTornTail(t *testing.T) {
	huge := appendRecord(nil, 0, []byte("torn-away"))
	binary.LittleEndian.PutUint32(huge[6:], 0xFFFFFFF0)
	full := appendRecord(nil, 0, []byte("torn-away"))
	for name, tail := range map[string][]byte{"cut short": full[:len(full)-3], "0xFFFFFFF0 declared": huge} {
		dir := t.TempDir()
		st := openStore(t, dir)
		if _, err := st.WriteSnapshot(0, []byte("base")); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, "good")
		st.Close()

		f, err := os.OpenFile(filepath.Join(dir, "wal-00000000.log"), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		st2, _, _, recs := mustLoad(t, dir)
		if !reflect.DeepEqual(recs, []string{"good"}) {
			t.Fatalf("%s: replay over the torn tail = %v, want the one good record", name, recs)
		}
		// Double-crash: appending after a torn-tail recovery must land where
		// the next recovery can read it — the torn bytes are trimmed, not
		// appended past.
		mustAppend(t, st2, "after-recovery")
		st2.Close()
		if _, _, _, recs := mustLoad(t, dir); !reflect.DeepEqual(recs, []string{"good", "after-recovery"}) {
			t.Fatalf("%s: replay after torn-tail append = %v, want [good after-recovery]", name, recs)
		}
	}
}

// TestStoreDamagedSnapshotFallsBack plants two generations by hand and
// damages the newer snapshot — a flipped payload byte, a header declaring
// 0xFFFFFFF0 bytes, or an intact frame of a wire message's kind in its
// place; Load must recover the older one.
func TestStoreDamagedSnapshotFallsBack(t *testing.T) {
	good := appendFrame(nil, kindSnapshot, []byte("new"))
	flipped := slices.Clone(good)
	flipped[len(flipped)/2] ^= 0xff
	huge := slices.Clone(good)
	binary.LittleEndian.PutUint32(huge[6:], 0xFFFFFFF0)
	const kindGlobal = 4 // the wire's dense global
	for name, newer := range map[string][]byte{"flipped": flipped, "0xFFFFFFF0 declared": huge,
		"wire frame": appendFrame(nil, kindGlobal, []byte("new"))} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snap-00000000.ckpt"), appendFrame(nil, kindSnapshot, []byte("old")), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snap-00000005.ckpt"), newer, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, rounds, payload, _ := mustLoad(t, dir); rounds != 0 || payload != "old" {
			t.Fatalf("%s: recovered (%d, %q), want the older intact generation", name, rounds, payload)
		}
	}
}
