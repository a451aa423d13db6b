package checkpoint_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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
// (core.EncodeState) is bit-exact for a full state, a word-restricted one
// and one covering no word.
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

// TestManagerCodecRejectsDamage: the encoding has no frame of its own
// (its carriers checksum it), so the decoder alone must refuse a
// structurally damaged body with checkpoint.ErrCorrupt — every proper
// prefix, a trailing byte, an array length that is negative or overruns
// the body, and a word generation past 32 bits.
func TestManagerCodecRejectsDamage(t *testing.T) {
	buf := core.EncodeState(testManagerState())
	refused := func(what string, bad []byte) {
		t.Helper()
		if _, err := core.DecodeState(bad); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", what, err)
		}
	}
	for n := 0; n < len(buf); n++ {
		refused(fmt.Sprintf("%d-byte prefix", n), buf[:n])
	}
	refused("one trailing byte", append(slices.Clone(buf), 0))

	// The Ref length follows the dimension (8 bytes) and the coverage
	// flag (1 byte).
	const refLenAt = 9
	for _, n := range []int64{-1, math.MinInt64, int64(len(buf)), 1 << 50} {
		bad := slices.Clone(buf)
		binary.LittleEndian.PutUint64(bad[refLenAt:], uint64(n))
		refused(fmt.Sprintf("Ref length %d", n), bad)
	}

	// The word generations are the last array: one word, its value in the
	// final 8 bytes.
	for _, g := range []int64{1 << 32, -1} {
		bad := slices.Clone(buf)
		binary.LittleEndian.PutUint64(bad[len(bad)-8:], uint64(g))
		refused(fmt.Sprintf("word generation %d", g), bad)
	}
}

// TestOldFormatRefused: a frame stamped with the previous format version
// is refused with ErrVersion, and a manager blob in that format — a frame
// of its own around the body — is corrupt, never decoded.
func TestOldFormatRefused(t *testing.T) {
	body := core.EncodeState(testManagerState())
	old := checkpoint.PreviousVersionFrame(checkpoint.AppendFrame(nil, checkpoint.KindSnapshot, body))
	if _, _, _, err := checkpoint.ReadFrame(old, 0); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("previous-version frame: err = %v, want ErrVersion", err)
	}
	const previousManagerKind = 1
	framed := checkpoint.PreviousVersionFrame(checkpoint.AppendFrame(nil, previousManagerKind, body))
	if _, err := core.DecodeState(framed); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("previous-format manager frame: err = %v, want ErrCorrupt", err)
	}
}
