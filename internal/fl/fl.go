// Package fl implements the federated-learning engine of the reproduction:
// a central server and N clients that train private model replicas on
// non-IID local shards and synchronize through a pluggable SyncManager —
// the seam where APF, the strawman schemes, Gaia, CMFL, and quantization
// plug in (the paper's APF_Manager/Gaia_Manager/CMFL_Manager modules).
//
// The engine runs clients on parallel goroutines with a barrier at every
// aggregation, counts every byte that would cross the client↔server link
// in both the push and pull phases, and supports the FedProx objective and
// straggler behaviour of the paper's §7.7.
package fl

import (
	"math/rand"

	"apf/internal/nn"
	"apf/internal/opt"
)

// SyncManager handles everything synchronization-related on one client,
// mirroring the paper's pluggable manager modules. Implementations decide
// what is transmitted, maintain freezing/selection state, and report the
// exact wire bytes of each exchange.
//
// The engine guarantees the call order, per round:
//
//	PostIterate × localIters  →  PrepareUpload  →  ApplyDownload
//
// All clients observe identical global state, so deterministic managers
// produce identical masks on every client (the paper's M_is_frozen
// consistency property); the test suite asserts this.
type SyncManager interface {
	// PostIterate is invoked after every local optimizer step with the
	// flat model vector, which it may mutate in place (APF rolls frozen
	// scalars back here, emulating fine-grained freezing).
	PostIterate(round int, x []float64)

	// PrepareUpload returns the dense contribution vector the server
	// should fold into the weighted average for this client, the client's
	// aggregation weight (0 withholds the contribution entirely, as CMFL
	// does for irrelevant updates), and the bytes pushed on the wire.
	// The returned slice must not alias x; it may be manager-owned
	// scratch, valid only until the next PrepareUpload call — callers
	// that retain it across rounds must copy. (The engine consumes it
	// before the round's download barrier; the transport encodes it
	// synchronously.)
	PrepareUpload(round int, x []float64) (contrib []float64, weight float64, upBytes int64)

	// ApplyDownload merges the aggregated global vector into the local
	// model x in place and returns the bytes pulled on the wire.
	ApplyDownload(round int, x, global []float64) (downBytes int64)
}

// FrozenRatioReporter is implemented by managers that freeze parameters;
// the engine records the ratio for the paper's frozen-ratio curves.
type FrozenRatioReporter interface {
	// FrozenRatio returns the fraction of scalars currently frozen.
	FrozenRatio() float64
}

// CompactCodec is implemented by managers whose synchronization payloads
// omit frozen entries. Real network transports (package transport) use it
// to put only the actually-transmitted scalars on the wire — the compact
// slice travels verbatim as the F64s payload of a wire.UpdateMsg, raw
// IEEE-754 bits with no further filtering — and the aggregation server
// averages compact payloads positionally, which is sound because every
// client's freezing mask is identical (transports guard this with a mask
// hash per update).
// Like PrepareUpload's contribution, both returned slices may be
// manager-owned scratch, valid only until the next call of the same
// method.
type CompactCodec interface {
	// CompactUpload extracts the transmitted scalars from a dense
	// contribution for the given round.
	CompactUpload(round int, contrib []float64) []float64
	// ExpandDownload reconstructs the dense global vector from an
	// aggregated compact payload, filling frozen entries locally.
	ExpandDownload(round int, compact []float64) []float64
}

// MaskReporter exposes the raw freezing mask for cross-client consistency
// checks in tests.
type MaskReporter interface {
	// MaskWords returns the freezing bitmap's backing words (read-only).
	MaskWords() []uint64
}

// MaskGenerationReporter is implemented by managers that version their
// freezing mask (core.Manager counts stability checks). Transports attach
// the generation to sparse updates so the server can trip on divergent
// mask histories before positional aggregation, and echo it on sparse
// globals so clients verify they expand against the intended mask.
type MaskGenerationReporter interface {
	// MaskGeneration returns the mask's generation (≥ 0).
	MaskGeneration() int
}

// As returns the first manager, m itself or one it wraps, that is a T. A
// wrapper (quantization, DP noise, an adversary) exposes the manager it
// wraps through Unwrap() SyncManager, so the optional capabilities of the
// innermost manager — compact codec, mask, snapshot restore, sketch
// reconciliation — are found through any stack of wrappers without each
// wrapper forwarding them.
func As[T any](m SyncManager) (T, bool) {
	for m != nil {
		if t, ok := m.(T); ok {
			return t, true
		}
		w, ok := m.(interface{ Unwrap() SyncManager })
		if !ok {
			break
		}
		m = w.Unwrap()
	}
	var zero T
	return zero, false
}

// ModelFactory builds one model replica. The engine seeds every replica
// with the same initial parameter vector regardless of the factory's rng.
type ModelFactory func(rng *rand.Rand) *nn.Network

// OptimizerFactory builds a client-local optimizer over params.
type OptimizerFactory func(params []*nn.Param) opt.Optimizer

// ManagerFactory builds the SyncManager for one client; dim is the flat
// model length.
type ManagerFactory func(clientID, dim int) SyncManager

// PassthroughManager is the no-compression baseline (vanilla FedAvg): the
// full model crosses the wire in both phases. It also serves as the
// "w/o APF" arm of every end-to-end comparison.
type PassthroughManager struct {
	bytesPerValue int64
}

var _ SyncManager = (*PassthroughManager)(nil)

// NewPassthroughManager constructs the baseline manager; bytesPerValue is
// the wire size of one scalar (the paper transmits 32-bit floats, so 4).
func NewPassthroughManager(bytesPerValue int) *PassthroughManager {
	return &PassthroughManager{bytesPerValue: int64(bytesPerValue)}
}

// PostIterate is a no-op for the baseline.
func (m *PassthroughManager) PostIterate(int, []float64) {}

// PrepareUpload pushes the full model.
func (m *PassthroughManager) PrepareUpload(_ int, x []float64) ([]float64, float64, int64) {
	contrib := append([]float64(nil), x...)
	return contrib, 1, int64(len(x)) * m.bytesPerValue
}

// ApplyDownload pulls the full model.
func (m *PassthroughManager) ApplyDownload(_ int, x, global []float64) int64 {
	copy(x, global)
	return int64(len(x)) * m.bytesPerValue
}
