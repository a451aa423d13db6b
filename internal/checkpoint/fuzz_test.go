package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/core"
)

// FuzzCheckpointDecode throws arbitrary bytes at every decode surface of
// the package: the frame reader, the WAL replay, and the manager state
// encoding (core.EncodeState).
// Invariants: no panic, no over-allocation (the length guards bound slices
// by the payload), and anything that decodes successfully must re-encode
// to the bytes it was read from (WAL records) or to an encoding that
// decodes to the same state (manager).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(checkpoint.AppendFrame(nil, checkpoint.KindSnapshot, []byte("payload")))
	f.Add(core.EncodeState(testManagerState()))
	f.Add(checkpoint.PreviousVersionFrame(checkpoint.AppendFrame(nil, checkpoint.KindSnapshot, []byte("payload")))) // the version-reject arm
	var w checkpoint.Writer
	w.Int(4)
	w.Bool(false)
	w.Int(1 << 50) // absurd Ref length claim: must be bounded, not allocated
	f.Add(w.Bytes())
	// A recycled log: live records of generation 7 in front of a stale one.
	f.Add(checkpoint.AppendRecord(checkpoint.AppendRecord(checkpoint.AppendRecord(nil, 7, []byte("live")), 7, nil), 4, []byte("stale")))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame stream: walk every frame.
		buf := data
		for i := 0; i < 1000; i++ {
			_, payload, rest, err := checkpoint.ReadFrame(buf, 0)
			if err != nil {
				break
			}
			if len(payload) > len(data) {
				t.Fatalf("payload %d bytes from a %d-byte input", len(payload), len(data))
			}
			buf = rest
		}

		// WAL replay, as Store.Load does, of the generation the first
		// frame's payload opens with: the live records are exactly the
		// bytes they span, and none carries another stamp.
		if _, first, _, err := checkpoint.ReadFrame(data, 0); err == nil && len(first) >= 8 {
			gen := binary.LittleEndian.Uint64(first)
			if records, live, err := checkpoint.ReplayRecords(data, gen); err == nil {
				var again []byte
				for _, r := range records {
					again = checkpoint.AppendRecord(again, gen, r)
				}
				if !bytes.Equal(again, data[:live]) {
					t.Fatalf("%d records replayed at generation %d do not re-encode to their %d-byte live prefix", len(records), gen, live)
				}
			}
		}

		if s, err := core.DecodeState(data); err == nil {
			again, err := core.DecodeState(core.EncodeState(s))
			if err != nil {
				t.Fatalf("re-decode manager: %v", err)
			}
			if again.Dim != s.Dim || again.LastRound != s.LastRound || len(again.Ref) != len(s.Ref) {
				t.Fatalf("manager re-encode drifted: %+v vs %+v", again, s)
			}
		}
	})
}
