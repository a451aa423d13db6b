package checkpoint_test

import (
	"errors"
	"reflect"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/core"
	"apf/internal/perturb"
)

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

// TestManagerCodecRoundTrip checks the manager snapshot codec
// (core.EncodeState, a KindManager frame) is bit-exact for a full state,
// a word-restricted one and one covering no word.
func TestManagerCodecRoundTrip(t *testing.T) {
	part := testManagerState()
	part.Dim, part.Words, part.WordGen = 260, []int{4}, []uint32{7}
	part.Tracker.Seeded = []uint64{5}
	empty := &core.State{Dim: 260, Words: []int{}, Threshold: 0.3, LastRound: 11,
		Tracker: perturb.EMAState{Alpha: 0.85, Seen: 9}}
	for _, s := range []*core.State{testManagerState(), part, empty} {
		got, err := core.DecodeState(core.EncodeState(s))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got.Words, s.Words) || (got.Words == nil) != (s.Words == nil) {
			t.Fatalf("coverage %#v came back as %#v", s.Words, got.Words)
		}
		if len(s.Ref) > 0 && !reflect.DeepEqual(got, s) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
		}
	}
}

// TestManagerCodecRejectsDamage flips bytes across the encoded manager
// frame; every damaged copy must fail to decode.
func TestManagerCodecRejectsDamage(t *testing.T) {
	buf := core.EncodeState(testManagerState())
	for i := 0; i < len(buf); i += 7 {
		bad := append([]byte(nil), buf...)
		bad[i] ^= 0x10
		if _, err := core.DecodeState(bad); err == nil {
			t.Fatalf("flip byte %d: damaged manager frame decoded", i)
		}
	}
	if _, err := core.DecodeState(append(buf, 0)); err == nil {
		t.Fatalf("trailing byte after manager frame accepted")
	}
}

// TestOldFormatRefused: a frame stamped with the previous format version
// is refused with ErrVersion, and a manager payload laid out as that
// format did (no coverage flag after the dimension) is corrupt — never
// decoded with the missing field defaulted.
func TestOldFormatRefused(t *testing.T) {
	frame := core.EncodeState(testManagerState())
	old := checkpoint.PreviousVersionFrame(frame)
	if _, _, _, err := checkpoint.ReadFrame(old); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("previous-version frame: err = %v, want ErrVersion", err)
	}
	if _, err := core.DecodeState(old); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("previous-version manager frame: err = %v, want ErrVersion", err)
	}

	payload := frame[checkpoint.FrameHeaderLen : len(frame)-checkpoint.FrameTrailLen]
	const flagAt = 8 // the coverage flag follows the dimension
	oldLayout := append(append([]byte(nil), payload[:flagAt]...), payload[flagAt+1:]...)
	if _, err := core.DecodeState(checkpoint.AppendFrame(nil, checkpoint.KindManager, oldLayout)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("manager payload without the coverage flag: err = %v, want ErrCorrupt", err)
	}
}
