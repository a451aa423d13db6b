package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"apf/internal/fl"
	"apf/internal/quantize"
)

// FuzzWireDecode throws arbitrary bytes at the frame decoder. Whatever the
// input, Decode must never panic and must either fail with one of the
// package's typed errors or hand back a message that re-encodes canonically
// — byte-for-byte — to the frame it was decoded from.
func FuzzWireDecode(f *testing.F) {
	for _, m := range []Msg{
		&JoinMsg{Name: "shard-0", SessionKey: "shard-0", HaveRound: -1},
		&UpdateMsg{Round: 3, Payload: []float64{1, -2.5, 3e300}, Weight: 30, MaskHash: 0xfeedface},
		&GlobalMsg{Round: 7, Payload: []float64{0.25, -0.75}, Participants: 2},
		&WelcomeMsg{
			ClientID: 1, NumClients: 2, Rounds: 8, Dim: 3,
			Init: []float64{1, 2, 3}, Round: 5, Resumed: true,
			Missed: []GlobalMsg{{Round: 4, Payload: []float64{7, 8, 9}, Participants: 2}},
		},
	} {
		f.Add(Encode(m))
	}
	// v2 handshake and sparse forms: the canonical-versioning rule makes
	// these the interesting mutation targets (version byte vs body shape).
	for _, m := range []Msg{
		&JoinMsg{Name: "shard-1", SessionKey: "k", HaveRound: 3},
		&WelcomeMsg{ClientID: 0, NumClients: 1, Rounds: 1, Dim: 2, Init: []float64{0, 0}, Codec: CodecSparseQ16},
		&SparseUpdateMsg{Round: 2, Weight: 4, MaskHash: 0xabad1dea, MaskGen: 3, Dim: 6,
			Enc: EncF64, Values: []float64{1.5, -2.25}},
		&SparseUpdateMsg{Round: 2, Weight: 4, MaskHash: 1, MaskGen: -1, Dim: 6,
			Enc: EncF16, Values: []float64{1, math.Copysign(math.NaN(), -1), math.NaN()}},
		&SparseGlobalMsg{Round: 9, Participants: 4, MaskHash: 7, MaskGen: 0, Dim: 4,
			Enc: EncF64, Values: []float64{-0.5}},
		&SparseGlobalMsg{Round: 9, Participants: 4, MaskHash: 7, MaskGen: 2, Dim: 4,
			Enc: EncF16, Values: []float64{0, math.Copysign(0, -1), 65504}},
	} {
		f.Add(Encode(m))
	}
	// Non-canonical NaN halves, which both decoders refuse.
	f.Add(withHalves(&SparseUpdateMsg{Round: 2, Weight: 4, MaskHash: 1, MaskGen: -1, Dim: 6,
		Enc: EncF16, Values: []float64{1, 0, 0}}, 0x3c00, 0xfc01, 0x7e33))
	// Relay forms: the packed accumulator section (width tags, canonical
	// widths, section length vs declared coordinates) is the mutation
	// target.
	for _, m := range []Msg{
		&RelayJoinMsg{Name: "edge-0", SessionKey: "edge-0", HaveRound: -1, Clients: 128},
		&PartialUpdateMsg{Round: 4, MaskHash: 0xabad1dea,
			Sum: fl.Partial{Count: 3, WeightLo: 1, WeightHi: 2, Cols: []uint64{0, 1, ^uint64(0), 5}}},
	} {
		f.Add(Encode(m))
	}
	// Catch-up forms: offered-generation counts are length-bounded and
	// each generation 32-bit, the catch-up Welcome is the
	// canonical-versioning target, and truncated snapshot frames must fail
	// typed.
	for _, m := range []Msg{
		&WelcomeMsg{ClientID: 2, NumClients: 4, Rounds: 9, Dim: 2,
			Init: []float64{1, 2}, Round: 6, Resumed: true, CatchUp: true, MaskGen: 3},
		&ResumeOfferMsg{Round: 5, MaskGen: 2},
		&ResumeOfferMsg{Round: 5, MaskGen: 2, Gens: []uint32{}},
		&ResumeOfferMsg{Round: 5, MaskGen: 2, Gens: []uint32{3, 0, 7}},
		&ResumeOfferMsg{Round: -1, MaskGen: -1},
		&ResumeOfferMsg{Round: 8, MaskGen: 3, Gens: []uint32{math.MaxUint32, 1}},
		&SnapshotMsg{Round: 8, Payload: []float64{1, math.NaN()},
			Manager: []byte{0xde, 0xad, 0x00, 0xef}},
		&SnapshotMsg{Round: 0, Payload: []float64{0}},
		&SnapshotMsg{Round: 8, Manager: []byte{0x43, 0x46}},
	} {
		f.Add(Encode(m))
	}
	// A snapshot frame truncated mid-payload.
	snap := Encode(&SnapshotMsg{Round: 3, Payload: []float64{1, 2, 3, 4}})
	f.Add(snap[:len(snap)-11])
	// Two frames back to back: Decode must return the remainder intact.
	f.Add(append(Encode(&JoinMsg{Name: "a"}), Encode(&GlobalMsg{Round: 0})...))
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 1<<20 {
			t.Skip("oversized input")
		}
		m, rest, err := Decode(in, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrUnknownKind) && !errors.Is(err, ErrTooLarge) &&
				!errors.Is(err, io.EOF) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		frame := in[:len(in)-len(rest)]
		if got := Encode(m); !bytes.Equal(got, frame) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", frame, got)
		}
		// The streaming reader must agree with the in-memory decoder.
		m2, err := new(FrameReader).Read(bytes.NewReader(in), 0)
		if err != nil {
			t.Fatalf("FrameReader failed on a frame Decode accepted: %v", err)
		}
		if !bytes.Equal(Encode(m2), frame) {
			t.Fatal("FrameReader and Decode disagree")
		}
	})
}

// FuzzSparseDecode drives the sparse body decoders through structured
// field space: any (round, weight, hash, generation, dimension, encoding,
// payload bytes) combination must either decode to exactly the encoded
// message or fail typed — hostile generation/dimension/length combos
// included.
func FuzzSparseDecode(f *testing.F) {
	f.Add(int64(1), 2.5, uint64(9), int64(0), int64(4), byte(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(int64(7), 1.0, uint64(0xfeedface), int64(-1), int64(2), byte(1), []byte{0x00, 0x3c, 0x01, 0xfc})
	f.Add(int64(0), 0.0, uint64(0), int64(-2), int64(0), byte(2), []byte{})
	f.Add(int64(3), 8.0, uint64(5), int64(10), int64(1), byte(1), []byte{1, 2, 3, 4, 5, 6})
	// The canonical NaN halves 0x7e00 and 0xfe00, which decode.
	f.Add(int64(4), 1.0, uint64(3), int64(1), int64(8), byte(1), []byte{0x00, 0x3c, 0x00, 0x7e, 0x00, 0xfe})

	f.Fuzz(func(t *testing.T, round int64, weight float64, hash uint64, gen, dim int64, encRaw byte, raw []byte) {
		if len(raw) > 1<<16 {
			t.Skip("oversized payload")
		}
		m := &SparseUpdateMsg{
			Round: int(round), Weight: weight, MaskHash: hash,
			MaskGen: int(gen), Dim: int(dim), Enc: Enc(encRaw % 2),
		}
		// halves are the raw binary16 column, written into the frame as
		// they are: the encoder would canonicalize a NaN half.
		var halves []uint16
		canonical := true
		if m.Enc == EncF16 {
			for i := 0; i+1 < len(raw); i += 2 {
				h := uint16(raw[i]) | uint16(raw[i+1])<<8
				halves = append(halves, h)
				m.Values = append(m.Values, quantize.HalfToFloat64(h))
				if a := h & 0x7fff; a > 0x7c00 && a != 0x7e00 {
					canonical = false
				}
			}
		} else {
			for i := 0; i+7 < len(raw); i += 8 {
				bits := uint64(0)
				for b := 0; b < 8; b++ {
					bits |= uint64(raw[i+b]) << (8 * b)
				}
				m.Values = append(m.Values, math.Float64frombits(bits))
			}
		}
		frame := Encode(m)
		if m.Enc == EncF16 {
			frame = withHalves(m, halves...)
		}
		// The encoder accepts shapes the decoder's validation refuses
		// (non-positive dim, scalars > dim, gen < -1, a non-canonical NaN
		// half); those must fail as corruption, not silently load.
		valid := m.Dim > 0 && m.Scalars() <= m.Dim && m.MaskGen >= -1 && canonical
		got, rest, err := Decode(frame, 0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("hostile sparse shape: got %v, want ErrCorrupt", err)
			}
			if valid {
				t.Fatalf("decoder rejected a valid sparse message: %v", err)
			}
			return
		}
		if !valid {
			t.Fatalf("decoder accepted a hostile sparse shape: %+v", m)
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes after a single frame", len(rest))
		}
		if !bytes.Equal(Encode(got), frame) {
			t.Fatal("sparse decode/encode not canonical")
		}
	})
}
