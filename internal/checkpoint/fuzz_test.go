package checkpoint

import "testing"

// FuzzCheckpointDecode throws arbitrary bytes at every decode surface of
// the package: the frame reader and the manager codec. Invariants: no
// panic, no over-allocation (the length guards bound slices by the
// payload), and anything that decodes successfully must re-encode to a
// frame that decodes to the same bytes.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, KindUser, []byte("payload")))
	f.Add(EncodeManager(testManagerState()))
	f.Add(previousVersionFrame(EncodeManager(testManagerState()))) // the version-reject arm
	var w Writer
	w.Int(1 << 50) // absurd length claim: must be bounded, not allocated
	f.Add(AppendFrame(nil, KindManager, w.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame stream: walk every frame, as Store.replayWAL does.
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
