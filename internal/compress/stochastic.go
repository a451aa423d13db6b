package compress

import (
	"fmt"

	"apf/internal/fl"
	"apf/internal/quantize"
	"apf/internal/stats"
)

// StochasticQuantized wraps another manager with QSGD-style stochastic
// uniform quantization (§2.2's quantization family, generalizing the fp16
// wrapper): uploads are quantized with client-private randomness, and the
// broadcast global model is quantized once with randomness shared across
// clients (derived from (seed, round), emulating the server quantizing
// before broadcast) — shared, because each client applying different
// download noise would desynchronize local models and break APF's
// mask-consistency invariant.
type StochasticQuantized struct {
	inner      fl.SyncManager
	levels     int
	sharedSeed int64
	upQ        *quantize.StochasticQuantizer
	// downQ quantizes every global over down, re-seeded per round from
	// (sharedSeed, round).
	downQ *quantize.StochasticQuantizer
	down  stats.SplitStream
	// buf holds the quantized copy of the round's upload, then of its
	// global: the inner contribution may be the model itself, which this
	// wrapper must not write.
	buf []float64
}

var _ fl.SyncManager = (*StochasticQuantized)(nil)

// NewStochasticQuantized wraps inner with `levels` positive quantization
// levels (1 = TernGrad's {-1,0,1}). clientSeed drives the private upload
// randomness; sharedSeed must be identical on every client.
func NewStochasticQuantized(inner fl.SyncManager, levels int, clientSeed, sharedSeed int64) *StochasticQuantized {
	if inner == nil {
		panic("compress: nil inner manager")
	}
	m := &StochasticQuantized{
		inner:      inner,
		levels:     levels,
		sharedSeed: sharedSeed,
		upQ:        quantize.NewStochasticQuantizer(levels, stats.SplitRNG(clientSeed, 555)),
	}
	m.downQ = quantize.NewStochasticQuantizer(levels, &m.down)
	return m
}

// PostIterate delegates to the wrapped manager.
func (m *StochasticQuantized) PostIterate(round int, x []float64) { m.inner.PostIterate(round, x) }

// wireBytes rescales a 32-bit-value byte count to the quantizer's bit
// width, plus the 8-byte shared scale.
func (m *StochasticQuantized) wireBytes(inner int64) int64 {
	bits := int64(m.upQ.BitsPerValue())
	return inner*bits/32 + 8
}

// PrepareUpload quantizes a copy of the inner payload with private
// randomness. The copy is valid until the next PrepareUpload or
// ApplyDownload.
func (m *StochasticQuantized) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	contrib, w, up := m.inner.PrepareUpload(round, x)
	m.buf = append(m.buf[:0], contrib...)
	m.upQ.Quantize(m.buf)
	return m.buf, w, m.wireBytes(up)
}

// ApplyDownload quantizes the global model with shared per-round
// randomness, then delegates.
func (m *StochasticQuantized) ApplyDownload(round int, x, global []float64) int64 {
	m.down.Reset(m.sharedSeed, int64(round)+777)
	m.buf = append(m.buf[:0], global...)
	m.downQ.Quantize(m.buf)
	return m.wireBytes(m.inner.ApplyDownload(round, x, m.buf))
}

// Unwrap returns the wrapped manager, whose optional capabilities fl.As
// finds through the wrapper.
func (m *StochasticQuantized) Unwrap() fl.SyncManager { return m.inner }

// String describes the wrapper for logs.
func (m *StochasticQuantized) String() string {
	return fmt.Sprintf("StochasticQuantized(levels=%d, %d bits/value)", m.levels, m.upQ.BitsPerValue())
}
