package core

import (
	"fmt"
	"math/bits"
	"sync"

	"apf/internal/bitset"
)

// Server-side mask placement (§9, "Placement of freezing mask
// computation"): when client compute is the scarce resource (IoT devices),
// the stability checking can run once on the FL server instead of N times
// on the clients. The server follows the global model trajectory with a
// Follower — exactly the synchronized state every client-side manager
// would observe, so the resulting masks are bit-identical to the
// client-side placement — and ships each client the *changes* to the mask
// (§9: "instead of transmitting the full mask vector, we can otherwise
// transfer a dense representation including change-indexes").
//
// MaskServer owns the follower; MaskClient is the thin per-client
// SyncManager that applies rollbacks and accounts for the mask-delta
// downlink bytes.

// MaskServer computes freezing masks centrally from the global model
// trajectory. It is safe for concurrent use by the per-client MaskClients.
type MaskServer struct {
	mu sync.Mutex

	follower *Follower

	lastRound   int
	lastChanged int      // scalars whose frozen bit flipped at lastRound
	lastWords   []uint64 // mask words governing lastRound+1
}

// NewMaskServer constructs the central mask computer with the same Config
// an equivalent client-side Manager would use.
func NewMaskServer(cfg Config) *MaskServer {
	f := NewFollower(cfg)
	return &MaskServer{
		follower:  f,
		lastRound: -1,
		lastWords: make([]uint64, (f.Dim()+63)/64),
	}
}

// observe folds the round's aggregated global vector into the follower
// (once per round: the first caller performs the work, the remaining
// clients reuse the result), copies the mask for the *next* round into
// frozen, and returns how many scalars' frozen bit flipped. Rounds must
// arrive in order from 0; a regression or a skipped round panics.
func (s *MaskServer) observe(round int, global []float64, frozen *bitset.BitSet) (changed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if round < s.lastRound {
		panic(fmt.Sprintf("core: mask server observed round %d after round %d", round, s.lastRound))
	}
	if round > s.lastRound {
		if err := s.follower.Observe(round, global); err != nil {
			panic(fmt.Sprintf("core: mask server: %v", err))
		}
		s.lastChanged = 0
		for i, w := range s.follower.NextMask().Words() {
			s.lastChanged += bits.OnesCount64(w ^ s.lastWords[i])
			s.lastWords[i] = w
		}
		s.lastRound = round
	}
	for i, w := range s.lastWords {
		frozen.SetWord(i, w)
	}
	return s.lastChanged
}

// Dim returns the model dimension.
func (s *MaskServer) Dim() int { return s.follower.Dim() }

// MaskClient is the client-side counterpart of a MaskServer: it freezes
// and elides parameters exactly like a full Manager, but receives its mask
// from the server instead of computing it — trading a small mask-delta
// downlink cost for zero client-side stability computation.
type MaskClient struct {
	srv           *MaskServer
	bytesPerValue int64

	frozen *bitset.BitSet
	ref    []float64
}

// NewMaskClient constructs a client attached to srv.
func NewMaskClient(srv *MaskServer, bytesPerValue int) *MaskClient {
	if srv == nil {
		panic("core: nil mask server")
	}
	return &MaskClient{
		srv:           srv,
		bytesPerValue: int64(bytesPerValue),
		frozen:        bitset.New(srv.Dim()),
		ref:           make([]float64, srv.Dim()),
	}
}

// unfrozenBytes is the wire cost of the scalars the current mask leaves
// unfrozen.
func (c *MaskClient) unfrozenBytes() int64 {
	return int64(c.frozen.Len()-c.frozen.Count()) * c.bytesPerValue
}

// PostIterate rolls frozen scalars back to their reference values.
func (c *MaskClient) PostIterate(_ int, x []float64) {
	c.frozen.ApplyMasked(x, c.ref)
}

// PrepareUpload pushes the unfrozen scalars.
func (c *MaskClient) PrepareUpload(_ int, x []float64) ([]float64, float64, int64) {
	contrib := make([]float64, len(x))
	c.frozen.Blend(contrib, c.ref, x)
	return contrib, 1, c.unfrozenBytes()
}

// ApplyDownload pulls the unfrozen scalars, then fetches the round's mask
// delta from the server; the delta's transfer cost (4 bytes per changed
// index) is charged to the downlink, as §9 prescribes. Afterwards x and
// ref agree at every index, so a scalar the new mask freezes is pinned at
// the value it just synchronized.
func (c *MaskClient) ApplyDownload(round int, x, global []float64) int64 {
	down := c.unfrozenBytes()
	c.frozen.ApplyUnmasked(c.ref, global)
	copy(x, c.ref)
	changed := c.srv.observe(round, global, c.frozen)
	return down + int64(changed)*4
}

// FrozenRatio reports the frozen fraction of the current mask.
func (c *MaskClient) FrozenRatio() float64 { return c.frozen.Ratio() }

// MaskWords returns the mask's bitset words (read-only) for consistency
// tests.
func (c *MaskClient) MaskWords() []uint64 { return c.frozen.Words() }
