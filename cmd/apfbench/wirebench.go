package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"apf/internal/stats"
	"apf/internal/wire"
)

// wirebenchDim is the model size for the broadcast measurements — the
// 1M-scalar regime the paper's larger workloads live in.
const wirebenchDim = 1_000_000

// wirebenchEntry is one client-count row of BENCH_wire.json. Bytes are per
// round per client (the stream a single subscriber sees); broadcast times
// are per round across all clients. EncodeNs is the wire format's one-off
// serialization cost, which must not grow with the client count — the
// encode-once fan-out is the point.
type wirebenchEntry struct {
	Clients         int     `json:"clients"`
	WireBytesPerMsg int64   `json:"wire_bytes_per_msg"`
	WireBroadcastNs float64 `json:"wire_broadcast_ns_per_round"`
	WireEncodeNs    float64 `json:"wire_encode_ns_per_round"`
}

// sparsebenchEntry is one frozen-fraction row of the sparse codec arm:
// the bytes of a full-model dense global frame against the sparse
// (unfrozen-scalars-only) framing of the same round, lossless and
// quantized. Reductions are dense_bytes / codec_bytes.
type sparsebenchEntry struct {
	FrozenFrac      float64 `json:"frozen_frac"`
	Unfrozen        int     `json:"unfrozen_scalars"`
	DenseBytes      int64   `json:"dense_bytes_per_msg"`
	SparseBytes     int64   `json:"sparse_bytes_per_msg"`
	SparseQ16Bytes  int64   `json:"sparse_q16_bytes_per_msg"`
	SparseReduction float64 `json:"sparse_reduction"`
	Q16Reduction    float64 `json:"sparse_q16_reduction"`
	SparseEncodeNs  float64 `json:"sparse_encode_ns"`
	Q16EncodeNs     float64 `json:"sparse_q16_encode_ns"`
}

// wirebenchReport is the BENCH_wire.json document.
type wirebenchReport struct {
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Dim        int                `json:"dim"`
	Note       string             `json:"note"`
	Broadcast  []wirebenchEntry   `json:"broadcast"`
	SparseNote string             `json:"sparse_note"`
	Sparse     []sparsebenchEntry `json:"sparse"`
}

// countingWriter swallows writes and counts bytes, standing in for a
// connected socket whose kernel buffer never fills.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// runWirebench measures the encode-once wire framing of a GlobalMsg
// broadcast across client counts, plus the sparse-codec arm, and writes
// the report to path.
func runWirebench(path string) error {
	// Fail fast on an unwritable path before spending time measuring.
	probe, err := os.Create(path)
	if err != nil {
		return err
	}
	probe.Close()

	rng := stats.SplitRNG(1, 7)
	payload := make([]float64, wirebenchDim)
	for i := range payload {
		payload[i] = rng.NormFloat64()
	}
	msg := &wire.GlobalMsg{Round: 3, Payload: payload, Participants: 2}

	rep := wirebenchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Dim:        wirebenchDim,
		Note:       "bytes are per round per client (steady-state stream); broadcast ns are per round across all clients; wire_encode_ns must stay flat as clients grow",
	}

	for _, clients := range []int{2, 8, 32} {
		fmt.Fprintf(os.Stderr, "wirebench: clients=%d\n", clients)
		e := wirebenchEntry{Clients: clients, WireBytesPerMsg: int64(len(wire.Encode(msg)))}
		sinks := make([]*countingWriter, clients)
		for i := range sinks {
			sinks[i] = &countingWriter{}
		}

		// Wire broadcast: encode once, hand the same frame to every sink.
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				frame := wire.Encode(msg)
				for _, w := range sinks {
					if _, err := w.Write(frame); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		e.WireBroadcastNs = float64(r.NsPerOp())

		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = wire.Encode(msg)
			}
		})
		e.WireEncodeNs = float64(r.NsPerOp())
		rep.Broadcast = append(rep.Broadcast, e)
	}

	if err := runSparsebench(&rep); err != nil {
		return err
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wirebench: wrote %s\n", path)
	return nil
}

// sparseGateFrac/sparseGateSlack define the CI regression gate: at the
// gate fraction the lossless sparse reduction must stay within 5% of the
// geometric ideal 1/(1-frozen) — any framing bloat (accidental indices,
// padding, metadata growth) trips it.
const (
	sparseGateFrac  = 0.95
	sparseGateSlack = 0.95
)

// runSparsebench fills the report's sparse arm: dense full-model global
// frames against sparse framing across frozen fractions, plus the CI gate.
func runSparsebench(rep *wirebenchReport) error {
	rng := stats.SplitRNG(2, 11)
	dense := make([]float64, wirebenchDim)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	denseFrame := wire.Encode(&wire.GlobalMsg{Round: 3, Payload: dense, Participants: 2})

	rep.SparseNote = fmt.Sprintf(
		"sparse rows compare a dense full-model global frame against positional sparse framing of the unfrozen scalars; reductions are dense/codec bytes; CI gate: sparse_reduction at frozen_frac %.2f must be >= %.2f of the ideal 1/(1-frac)",
		sparseGateFrac, sparseGateSlack)

	for _, frac := range []float64{0, 0.5, 0.9, 0.95, 0.99} {
		fmt.Fprintf(os.Stderr, "wirebench: sparse frozen_frac=%.2f\n", frac)
		unfrozen := wirebenchDim - int(frac*wirebenchDim)
		values := dense[:unfrozen]

		e := sparsebenchEntry{
			FrozenFrac: frac,
			Unfrozen:   unfrozen,
			DenseBytes: int64(len(denseFrame)),
		}
		mk := func(enc wire.Enc) *wire.SparseGlobalMsg {
			g := &wire.SparseGlobalMsg{
				Round: 3, Participants: 2,
				MaskHash: 0x9e3779b97f4a7c15, MaskGen: 4,
				Dim: wirebenchDim, Enc: enc,
			}
			g.Values, g.Q = wire.PackSparse(enc, values)
			return g
		}
		lossless, q16 := mk(wire.EncF64), mk(wire.EncF16)
		e.SparseBytes = int64(len(wire.Encode(lossless)))
		e.SparseQ16Bytes = int64(len(wire.Encode(q16)))
		e.SparseReduction = float64(e.DenseBytes) / float64(e.SparseBytes)
		e.Q16Reduction = float64(e.DenseBytes) / float64(e.SparseQ16Bytes)

		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mk(wire.EncF64)
				_ = wire.Encode(g)
			}
		})
		e.SparseEncodeNs = float64(r.NsPerOp())
		r = testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mk(wire.EncF16)
				_ = wire.Encode(g)
			}
		})
		e.Q16EncodeNs = float64(r.NsPerOp())
		rep.Sparse = append(rep.Sparse, e)

		if frac == sparseGateFrac {
			ideal := 1 / (1 - frac)
			if e.SparseReduction < sparseGateSlack*ideal {
				return fmt.Errorf("sparse regression gate: reduction %.2fx at frozen_frac %.2f is below %.2f×%.2fx",
					e.SparseReduction, frac, sparseGateSlack, ideal)
			}
		}
	}
	return nil
}
