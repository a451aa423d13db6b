package checkpoint

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode throws arbitrary bytes at every decode surface of
// the package: the frame reader, the WAL replay, and the manager codec.
// Invariants: no panic, no over-allocation (the length guards bound slices
// by the payload), and anything that decodes successfully must re-encode
// to the bytes it was read from (WAL records) or to a frame that decodes
// to the same state (manager).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, KindUser, []byte("payload")))
	f.Add(EncodeManager(testManagerState()))
	f.Add(previousVersionFrame(EncodeManager(testManagerState()))) // the version-reject arm
	var w Writer
	w.Int(1 << 50) // absurd length claim: must be bounded, not allocated
	f.Add(AppendFrame(nil, KindManager, w.Bytes()))
	// A recycled log: live records of generation 7 in front of a stale one.
	f.Add(AppendRecord(AppendRecord(AppendRecord(nil, 7, KindUser, []byte("live")), 7, KindUser, nil), 4, KindUser, []byte("stale")))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame stream: walk every frame.
		buf := data
		for i := 0; i < 1000; i++ {
			_, payload, rest, err := ReadFrame(buf)
			if err != nil {
				break
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte input", len(payload), len(data))
			}
			buf = rest
		}

		// WAL replay, as Store.Load does, of the generation the first
		// record is stamped with: the live records are exactly the bytes
		// they span, and none carries another stamp.
		if gen, _, _, _, err := ReadRecord(data); err == nil {
			records, live := replayRecords(data, gen)
			var again []byte
			for _, r := range records {
				again = AppendRecord(again, gen, r.Kind, r.Payload)
			}
			if !bytes.Equal(again, data[:live]) {
				t.Fatalf("%d records replayed at generation %d do not re-encode to their %d-byte live prefix", len(records), gen, live)
			}
		}

		if s, err := DecodeManager(data); err == nil {
			again, err := DecodeManager(EncodeManager(s))
			if err != nil {
				t.Fatalf("re-decode manager: %v", err)
			}
			if again.Dim != s.Dim || again.LastRound != s.LastRound || len(again.Ref) != len(s.Ref) {
				t.Fatalf("manager re-encode drifted: %+v vs %+v", again, s)
			}
		}
	})
}
