package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"apf/internal/checkpoint"
	"apf/internal/fl"
)

// mixedWidthCols builds a column vector (fl.Partial.Cols layout) spanning
// three packed blocks of different widths: small sums (1 byte), sums that
// fill the low word (8), and one 2^40-scale sum (14) in a short tail.
func mixedWidthCols() []uint64 {
	cols := make([]uint64, 2*(2*256+5))
	for j := 0; j < 256; j++ {
		cols[2*j] = uint64(j % 100)
	}
	for j := 256; j < 512; j++ {
		cols[2*j] = 0x1234_5678_9abc_def0 + uint64(j)
	}
	neg := 2 * 300 // a negative sum inside the 8-byte block
	cols[neg], cols[neg+1] = ^uint64(0)>>1+1, ^uint64(0)
	cols[2*514], cols[2*514+1] = 7, 1<<40
	return cols
}

// relaySampleMsgs covers the relay kinds with awkward values: empty and
// populated accumulators, negative rounds, resumable sessions.
func relaySampleMsgs() []Msg {
	return []Msg{
		&RelayJoinMsg{Name: "edge-0", SessionKey: "edge-0/key==", HaveRound: -1, Clients: 4096},
		&RelayJoinMsg{},
		&PartialUpdateMsg{
			Round: 12, MaskHash: 0xfeedface,
			Sum: fl.Partial{Count: 31250, WeightLo: 0, WeightHi: 31250,
				Cols: []uint64{0, 1, ^uint64(0), ^uint64(0) >> 1, 42, 7}},
		},
		&PartialUpdateMsg{Round: 3, Sum: fl.Partial{Count: 2, WeightHi: 2, Cols: mixedWidthCols()}},
		&PartialUpdateMsg{Round: -1},
	}
}

func TestRelayRoundTrip(t *testing.T) {
	for _, m := range relaySampleMsgs() {
		frame := Encode(m)
		got, rest, err := Decode(frame, 0)
		if err != nil {
			t.Fatalf("%s: Decode: %v", m.WireKind(), err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d bytes left after sole frame", m.WireKind(), len(rest))
		}
		sameMsg(t, m, got)
		// The streaming reader must agree.
		got2, err := ReadMsg(bytes.NewReader(frame), 0)
		if err != nil {
			t.Fatalf("%s: ReadMsg: %v", m.WireKind(), err)
		}
		sameMsg(t, m, got2)
	}
}

// TestPartialDecodeAliasesFrame pins the zero-copy contract: the decoded
// message's packed view points into the buffer it was decoded from, and a
// merge of it yields exactly the columns that were encoded.
func TestPartialDecodeAliasesFrame(t *testing.T) {
	cols := mixedWidthCols()
	frame := Encode(&PartialUpdateMsg{Round: 1, Sum: fl.Partial{Count: 1, WeightHi: 1, Cols: cols}})
	if got, want := PartialSectionLen(frame), 3+256*1+256*8+5*14; got != want {
		t.Fatalf("packed section is %d bytes, want %d (1-, 8- and 14-byte blocks)", got, want)
	}
	m, _, err := Decode(frame, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := m.(*PartialUpdateMsg)
	if p.Sum.Cols != nil || p.Sum.Dim() != len(cols)/2 {
		t.Fatalf("decoded partial: Cols %d words, Dim %d; want no materialized columns and dim %d",
			len(p.Sum.Cols), p.Sum.Dim(), len(cols)/2)
	}
	var merged fl.Partial
	if err := merged.Merge(&p.Sum); err != nil {
		t.Fatal(err)
	}
	for i := range cols {
		if merged.Cols[i] != cols[i] {
			t.Fatalf("word %d merged to %#x, want %#x", i, merged.Cols[i], cols[i])
		}
	}
	// Scribbling on the frame's packed section shows through the view.
	frame[headerLen+partialFixedLen+1] ^= 0x55
	merged.Reset()
	if err := merged.Merge(&p.Sum); err != nil {
		t.Fatal(err)
	}
	if merged.Cols[0] == cols[0] {
		t.Fatal("the decoded view does not alias the frame it was decoded from")
	}
}

// hostilePartialBody rebuilds a valid partial body with its packed section
// (and optionally its declared coordinate count) replaced.
func hostilePartialBody(dim int, section []byte) []byte {
	var w checkpoint.Writer
	w.Int(1)    // round
	w.Int(2)    // count
	w.U64(0)    // weight lo
	w.U64(2)    // weight hi
	w.U64(0xab) // mask hash
	w.Int(dim)
	return append(w.Bytes(), section...)
}

// TestHostileRelayBodies: structural invariants the aggregation path
// depends on — non-negative counts and a packed section that is exactly
// the canonical encoding of the declared coordinate count — must fail
// decode as corruption rather than load.
func TestHostileRelayBodies(t *testing.T) {
	for _, tt := range []struct {
		name string
		m    Msg
	}{
		{"negative relay client count", &RelayJoinMsg{Name: "edge", Clients: -1}},
		{"negative partial count", &PartialUpdateMsg{Round: 1, Sum: fl.Partial{Count: -7, Cols: []uint64{1, 2}}}},
	} {
		if _, _, err := Decode(Encode(tt.m), 0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tt.name, err)
		}
	}

	// Two coordinates needing 2 bytes each: tag 2, then 0x0100 and 0xff00.
	good := []byte{2, 0x00, 0x01, 0x00, 0xff}
	if _, err := decodeBody(KindPartialUpdate, hostilePartialBody(2, good)); err != nil {
		t.Fatalf("valid packed body refused: %v", err)
	}
	for _, tt := range []struct {
		name    string
		dim     int
		section []byte
	}{
		{"tag 0", 2, []byte{0, 0x00, 0x01, 0x00, 0xff}},
		{"tag 17", 2, append([]byte{17}, make([]byte, 34)...)},
		{"non-minimal tag", 2, []byte{3, 0x00, 0x01, 0x00, 0x00, 0xff, 0xff}},
		{"section one byte short", 2, good[:len(good)-1]},
		{"section one byte long", 2, append(append([]byte(nil), good...), 0)},
		{"dim below the section", 1, good},
		{"dim above the section", 3, good},
		{"negative dim", -2, good},
		{"empty section for a positive dim", 2, nil},
	} {
		if _, err := decodeBody(KindPartialUpdate, hostilePartialBody(tt.dim, tt.section)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tt.name, err)
		}
	}
}

// TestHostileColsCount feeds the partial decoder a coordinate count that
// overruns the frame by forty binary orders; it must be refused from the
// bytes present (the decoder allocates nothing sized by the claim, and its
// walk is bounded by the section's length).
func TestHostileColsCount(t *testing.T) {
	body := hostilePartialBody(1<<40, []byte{1, 5})
	if _, err := decodeBody(KindPartialUpdate, body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile coordinate count: got %v, want ErrCorrupt", err)
	}
}

// TestPartialFrameSteadyStateAllocs pins the hop's framing cost: framing
// a partial into a reused buffer and decoding it allocate a handful of
// small fixed-size objects (message, reader, writer) — nothing that grows
// with the model.
func TestPartialFrameSteadyStateAllocs(t *testing.T) {
	measure := func(dim int) (allocs float64, bytesPerRun uint64) {
		cols := make([]uint64, 2*dim)
		for j := range cols {
			cols[j] = uint64(j) * 0x9e3779b97f4a7c15 >> 8
		}
		msg := &PartialUpdateMsg{Round: 1, Sum: fl.Partial{Count: 1, WeightHi: 1, Cols: cols}}
		var root fl.Partial
		frame := Append(nil, msg)
		run := func() {
			frame = Append(frame[:0], msg)
			m, _, err := Decode(frame, 0)
			if err != nil {
				t.Fatal(err)
			}
			root.Reset()
			if err := root.Merge(&m.(*PartialUpdateMsg).Sum); err != nil {
				t.Fatal(err)
			}
		}
		run() // size root's columns
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	}
	smallAllocs, smallBytes := measure(64)
	bigAllocs, bigBytes := measure(64 << 10)
	if bigAllocs != smallAllocs || bigAllocs > 6 {
		t.Errorf("frame + decode + merge: %v allocations at dim 65536, %v at dim 64; want equal and at most 6", bigAllocs, smallAllocs)
	}
	if bigBytes > smallBytes+256 {
		t.Errorf("frame + decode + merge allocates %d B per partial at dim 65536 against %d B at dim 64", bigBytes, smallBytes)
	}
}

func TestRelayKindStrings(t *testing.T) {
	if got := KindRelayJoin.String(); got != "relay-join" {
		t.Fatalf("KindRelayJoin.String() = %q", got)
	}
	if got := KindPartialUpdate.String(); got != "partial-update" {
		t.Fatalf("KindPartialUpdate.String() = %q", got)
	}
}
