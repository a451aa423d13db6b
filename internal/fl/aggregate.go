package fl

import (
	"errors"
	"fmt"
	"math"
)

// Aggregator computes the server-side weighted mean of client contributions
// by sharding the parameter range across a persistent worker pool. The
// mean is the exact fixed-point reduction defined in exact.go: every
// product is converted to a 128-bit fixed-point integer and summed
// exactly, so the result is bit-identical regardless of worker count,
// scheduling, arrival order, or how the clients are partitioned across
// relay pre-aggregators.
//
// A round is collected incrementally (Open/Add/Reduce): Add admits each
// client's contribution through the one numeric admission rule
// (checkUpdate) — a NaN or Inf scalar or weight, a weighted product past
// the exact fold's bound, or a length disagreeing with the round's yields
// a typed error instead of corrupting the aggregate — and Reduce folds the
// admitted set through the exact reduction. Every tier collects this way,
// the in-process simulator (Engine) included, so a contribution is
// admitted or refused by the same rule wherever it arrives.
//
// Two further collection modes serve the hierarchical topology. With
// SetStreaming(true), Add folds each contribution into exact partial
// state immediately and retains nothing — constant memory per relay no
// matter how many clients an edge terminates — and ExportPartial hands
// the mergeable state upstream. With AddPartial, a root folds the
// partials relays exported; because the underlying sums are exact
// integers, the root's Reduce is bit-identical to a flat server having
// collected every client directly.
//
// An Aggregator is NOT safe for concurrent use; it reuses internal job
// state across rounds to keep the steady state allocation-free.
type Aggregator struct {
	pool    *workerPool
	ownPool bool

	// Job state for the weightedMean in flight (published to the workers
	// via the pool's Do barrier).
	dst      []float64
	contribs [][]float64
	jobW     []float64 // raw weights, 0 marks a skipped client
	wf       float64   // correctly-rounded float of the exact total weight
	chunk    int

	runFn func(int) // bound once so Do allocates nothing per call

	// Per-side trim fraction (SetTrimFraction; 0 = weighted mean) plus the
	// trimmed path's job state and per-chunk scratch columns — reused
	// across rounds like the mean path's buffers, so the steady state
	// stays allocation-free.
	trimFrac             float64
	tContribs            [][]float64
	tWeights             []float64
	trimScratch          [][]trimPair
	trimDepth            int
	lastTrimK, lastTrimM int
	runTrimFn            func(int)

	// In-flight round state (Open/Add/Reduce).
	open     bool
	round    int
	slots    [][]float64 // stored contributions by client id, nil = absent
	slotW    []float64
	received int

	// Streaming / partial-merge state. In streaming mode Add folds into
	// psum and discards the payload; pMode marks a round collected from
	// relay partials via AddPartial.
	stream bool
	seen   []bool
	psum   Partial
	pMode  bool
}

// NewAggregator builds an aggregator over its own pool of the given worker
// count (<= 0 means GOMAXPROCS). Close must be called to release the pool.
func NewAggregator(workers int) *Aggregator {
	return newAggregatorOn(newWorkerPool(workers), true)
}

func newAggregatorOn(pool *workerPool, own bool) *Aggregator {
	a := &Aggregator{pool: pool, ownPool: own}
	a.runFn = a.runChunk
	a.runTrimFn = a.runTrimChunk
	return a
}

// minChunk keeps shards coarse enough that the per-task dispatch cost stays
// negligible against the arithmetic.
const minChunk = 4096

// weightedMean fills dst with the exact weighted mean of the admitted
// contributions: dst[j] = float64(Σ_k fix(w_k·c_k[j])) / float64(Σ_k
// fix(w_k)), skipping clients with weight 0 (an absent slot is nil with
// weight 0). When the total weight is 0 there is nothing to aggregate: dst
// is left untouched and false is returned.
func (a *Aggregator) weightedMean(dst []float64, contribs [][]float64, weights []float64) bool {
	var wlo, whi uint64
	for k, w := range weights {
		if w == 0 {
			continue
		}
		if len(contribs[k]) != len(dst) {
			panic(fmt.Sprintf("fl: contribution %d has length %d, want %d", k, len(contribs[k]), len(dst)))
		}
		plo, phi := fixFromFloat(w)
		wlo, whi = fixAdd(wlo, whi, plo, phi)
	}
	if whi == 0 && wlo == 0 {
		return false
	}
	a.wf = fixToFloat(wlo, whi)

	dim := len(dst)
	chunk := (dim + a.pool.workers*4 - 1) / (a.pool.workers * 4)
	if chunk < minChunk {
		chunk = minChunk
	}
	nChunks := (dim + chunk - 1) / chunk

	a.dst, a.contribs, a.jobW, a.chunk = dst, contribs, weights, chunk
	if nChunks <= 1 {
		a.runChunk(0) // too small to be worth the barrier
	} else {
		a.pool.Do(nChunks, a.runFn)
	}
	a.dst, a.contribs, a.jobW = nil, nil, nil
	return true
}

// foldBlockLen is how many coordinates the mean folds at a time: their
// 16-byte columns (8 KiB) stay in L1 while every contribution streams its
// span of the block (one 4 KiB page) through them.
const foldBlockLen = 512

// runChunk reduces one shard [ci·chunk, min(dim, (ci+1)·chunk)), a block
// of coordinates at a time. Each coordinate's column is summed exactly in
// 128-bit fixed point; because integer addition is associative the shard
// and block boundaries (and the worker schedule) cannot affect the bits.
func (a *Aggregator) runChunk(ci int) {
	base := ci * a.chunk
	end := min(base+a.chunk, len(a.dst))
	var cols [2 * foldBlockLen]uint64
	for at := base; at < end; at += foldBlockLen {
		n := min(foldBlockLen, end-at)
		a.foldBlock(a.dst[at:at+n], at, cols[:2*n])
	}
}

// foldBlock folds coordinates [at, at+len(dst)) of every weighted
// contribution into the columns cols, contribution by contribution, then
// converts each column once into dst.
func (a *Aggregator) foldBlock(dst []float64, at int, cols []uint64) {
	clear(cols)
	for k, c := range a.contribs {
		if w := a.jobW[k]; w != 0 {
			addSpan(cols, c[at:at+len(dst)], w)
		}
	}
	for j := range dst {
		dst[j] = fixToFloat(cols[2*j], cols[2*j+1]) / a.wf
	}
}

// Close releases the aggregator's pool (when it owns one).
func (a *Aggregator) Close() {
	if a.ownPool {
		a.pool.Close()
	}
}

// ErrNonFinite is returned (wrapped) by Add when a contribution carries a
// NaN or Inf scalar or weight. One poisoned client must never fold into
// the shards: a single non-finite scalar contaminates the global model
// and every downstream stability statistic.
var ErrNonFinite = errors.New("fl: non-finite contribution")

// firstUnfoldable returns the index of v's first scalar the exact fold
// cannot take at weight w (finite, non-negative), and why: a NaN or ±Inf
// (ErrNonFinite), or a finite scalar whose weighted product w·v[j] — the
// product the fold converts — is 2^43 or more in magnitude, past the
// per-term bound that keeps every sum in range (ErrAccumOverflow). It
// returns -1 and nil when every scalar folds. The
// scan ORs one out-of-range flag per product down the slice without a
// branch and tests it once (w·x is NaN or ±Inf whenever x is, so the
// product alone flags both causes); only a slice that holds such a scalar
// is scanned again to name it.
func firstUnfoldable(v []float64, w float64) (int, error) {
	var bad uint64
	for _, x := range v {
		// The biased exponent is at least 1066 (|w·x| ≥ 2^43, NaN and ±Inf
		// included) exactly when adding 982 carries into bit 11.
		bad |= (math.Float64bits(w*x)>>52&0x7FF + 982) >> 11
	}
	if bad == 0 {
		return -1, nil
	}
	for j, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return j, ErrNonFinite
		}
		if !(math.Abs(w*x) < maxTerm) {
			return j, ErrAccumOverflow
		}
	}
	return -1, nil
}

// ErrLengthMismatch is returned (wrapped) by Add when a contribution's
// length disagrees with one already stored for the round — positionally
// aligned averaging is meaningless across different geometries.
var ErrLengthMismatch = errors.New("fl: payload length mismatch")

// SetStreaming switches incremental collection to constant-memory exact
// folding: Add validates each contribution and folds it into the round's
// Partial immediately instead of retaining the payload — the relay-tier
// mode, where an edge may terminate far more clients than fit in memory.
// Streaming rounds cannot apply a trimmed reduction (it needs every
// per-client value). Must be called outside an open round.
func (a *Aggregator) SetStreaming(on bool) {
	if a.open {
		panic("fl: SetStreaming inside an open round")
	}
	if on && a.trimFrac > 0 {
		panic("fl: streaming aggregation cannot apply a trimmed reduction")
	}
	a.stream = on
}

// Open begins incremental collection of one round with n client slots,
// discarding any round still in flight. Slot buffers are reused across
// rounds. n must lie in [1, MaxContributors].
func (a *Aggregator) Open(round, n int) {
	if n <= 0 || n > MaxContributors {
		panic(fmt.Sprintf("fl: invalid client count %d", n))
	}
	if a.stream {
		if cap(a.seen) < n {
			a.seen = make([]bool, n)
		}
		a.seen = a.seen[:n]
		clear(a.seen)
		a.psum.Reset()
	} else {
		if cap(a.slots) < n {
			a.slots = make([][]float64, n)
			a.slotW = make([]float64, n)
		}
		a.slots, a.slotW = a.slots[:n], a.slotW[:n]
		clear(a.slots)
		clear(a.slotW)
	}
	a.open, a.round, a.received, a.pMode = true, round, 0, false
}

// Add stores client id's contribution for the open round. It returns a
// typed error — never panics — on an out-of-range id, a duplicate, or a
// contribution checkUpdate refuses (a length disagreeing with the round's,
// a non-finite scalar or weight, a weight or weighted product of 2^43 or
// more); every one of these leaves the round as it was, and whether an
// update is refused depends on that update alone. In the default mode the
// slice is stored, not copied; callers must not mutate it until the round
// is reduced or discarded. In streaming mode the contribution is folded
// exactly into the round's partial state and the slice is not retained.
func (a *Aggregator) Add(id int, contrib []float64, weight float64) error {
	if !a.open {
		return fmt.Errorf("fl: Add outside an open round")
	}
	if a.pMode {
		return fmt.Errorf("fl: Add into round %d already collecting relay partials", a.round)
	}
	n := len(a.slots)
	if a.stream {
		n = len(a.seen)
	}
	if id < 0 || id >= n {
		return fmt.Errorf("fl: client id %d out of range [0,%d)", id, n)
	}
	if a.Received(id) {
		return fmt.Errorf("fl: duplicate contribution from client %d in round %d", id, a.round)
	}
	if err := checkUpdate(contrib, weight, a.Dim()); err != nil {
		return fmt.Errorf("round %d client %d: %w", a.round, id, err)
	}
	if a.stream {
		a.psum.fold(contrib, weight)
		a.seen[id] = true
	} else {
		if contrib == nil {
			// A fully-frozen round's compact payload is legitimately empty,
			// and the wire decoder hands it over as nil; the nil slot would
			// read as an absent client (and a duplicate re-send would slip
			// through).
			contrib = []float64{}
		}
		a.slots[id], a.slotW[id] = contrib, weight
	}
	a.received++
	return nil
}

// AddPartial folds a relay's exported partial into the open round — the
// root face of the hierarchy. The aggregator must be in streaming mode,
// and a round that has seen AddPartial refuses plain Adds (and vice
// versa): a round is collected from clients or from relays, never both.
// Validation (dimension, count, weight sign, the contribution bound) is
// Merge's; id-range and duplicate checks mirror Add's.
func (a *Aggregator) AddPartial(id int, p *Partial) error {
	if !a.open {
		return fmt.Errorf("fl: AddPartial outside an open round")
	}
	if !a.stream {
		return fmt.Errorf("fl: AddPartial needs a streaming aggregator")
	}
	if !a.pMode && a.received > 0 {
		return fmt.Errorf("fl: AddPartial into round %d already collecting client updates", a.round)
	}
	if id < 0 || id >= len(a.seen) {
		return fmt.Errorf("fl: relay id %d out of range [0,%d)", id, len(a.seen))
	}
	if a.seen[id] {
		return fmt.Errorf("fl: duplicate partial from relay %d in round %d", id, a.round)
	}
	if err := a.psum.Merge(p); err != nil {
		return fmt.Errorf("round %d relay %d: %w", a.round, id, err)
	}
	a.pMode = true
	a.seen[id] = true
	a.received++
	return nil
}

// Received reports whether client id already contributed to the open
// round.
func (a *Aggregator) Received(id int) bool {
	if !a.open || id < 0 {
		return false
	}
	if a.stream {
		return id < len(a.seen) && a.seen[id]
	}
	return id < len(a.slots) && a.slots[id] != nil
}

// Count returns how many contributions (clients, or relay partials in
// partial-merge rounds) the open round holds.
func (a *Aggregator) Count() int { return a.received }

// ClientCount returns how many client contributions the open round
// represents: for a partial-merge round, the sum of the relays' counts;
// otherwise the number of Adds.
func (a *Aggregator) ClientCount() int {
	if a.stream {
		return a.psum.Count
	}
	return a.received
}

// Dim returns the payload length of the open round's contributions (-1
// while none are stored).
func (a *Aggregator) Dim() int {
	if a.stream {
		if len(a.psum.Cols) == 0 {
			return -1
		}
		return a.psum.Dim()
	}
	for _, c := range a.slots {
		if c != nil {
			return len(c)
		}
	}
	return -1
}

// Reduce closes the open round and folds the stored contributions through
// the configured reduction into dst. At trim fraction 0 the result is the
// exact weighted mean — in streaming or partial-merge rounds bit-identical
// to a flat collection of every underlying client (the sums are exact, so
// grouping cannot change the bits). A positive trim fraction applies the
// coordinate-wise trimmed mean instead (which itself degrades bit-exactly
// to the mean when fewer than 3 contributions arrive). Returns the
// direct contribution count (Adds, or relay partials — see ClientCount
// for the underlying client total) and false when nothing aggregates (no
// contributions or zero total weight); the round is closed either way.
func (a *Aggregator) Reduce(dst []float64) (int, bool) {
	if !a.open {
		return 0, false
	}
	a.open = false
	count := a.received
	if count == 0 {
		return 0, false
	}
	var ok bool
	if a.stream {
		a.lastTrimK, a.lastTrimM = 0, count
		ok = a.psum.Mean(dst)
	} else if a.trimFrac > 0 {
		ok = a.trimmedMean(dst, a.slots, a.slotW, a.trimFrac)
	} else {
		a.lastTrimK, a.lastTrimM = 0, count
		ok = a.weightedMean(dst, a.slots, a.slotW)
	}
	return count, ok
}

// ExportPartial closes the open round and copies its exact mergeable
// state into p — the relay face of the hierarchy. Like AddPartial it needs
// a streaming aggregator. Returns the contribution count and false when no
// round was open; a round with zero contributions exports a valid empty
// partial.
func (a *Aggregator) ExportPartial(p *Partial) (int, bool) {
	if !a.stream {
		panic("fl: ExportPartial needs a streaming aggregator")
	}
	if !a.open {
		return 0, false
	}
	a.open = false
	p.CopyFrom(&a.psum)
	return a.received, true
}

// Discard drops the in-flight round without aggregating — the crash-
// recovery semantics: partials of an uncommitted round are thrown away
// and the round re-opened, which idempotent client re-sends tolerate.
func (a *Aggregator) Discard() {
	clear(a.slots)
	a.psum.Reset()
	a.open, a.received, a.pMode = false, 0, false
}
