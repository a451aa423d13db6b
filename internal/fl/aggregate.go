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
// Beyond the one-shot WeightedMean, an Aggregator also collects a round
// incrementally (Open/Add/Reduce): Add stores each client's in-flight
// contribution after a finiteness guard — a NaN or Inf scalar yields a
// typed ErrNonFinite instead of silently corrupting the aggregate — and
// Reduce folds the stored set through the identical exact reduction, so
// incremental collection is bit-exact with the one-shot path.
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
// An Aggregator is NOT safe for concurrent WeightedMean calls; it reuses
// internal job state across calls to keep the steady state allocation-free.
type Aggregator struct {
	pool    *workerPool
	ownPool bool

	// Job state for the WeightedMean in flight (published to the workers
	// via the pool's Do barrier).
	dst      []float64
	contribs [][]float64
	jobW     []float64 // raw weights, 0 marks a skipped client
	wf       float64   // correctly-rounded float of the exact total weight
	chunk    int

	runFn func(int) // bound once so Do allocates nothing per call

	// Reduction mode (SetReduction) plus the trimmed path's job state and
	// per-chunk scratch columns — reused across rounds like the mean
	// path's buffers, so the steady state stays allocation-free.
	reduction            Reduction
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
	// relay partials via AddPartial (pCount sums their client counts).
	stream bool
	seen   []bool
	psum   Partial
	pMode  bool
	pCount int
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

// WeightedMean fills dst with the exact weighted mean of the
// contributions: dst[j] = float64(Σ_k fix(w_k·c_k[j])) / float64(Σ_k
// fix(w_k)), skipping clients with weight 0 (their contrib may be nil —
// e.g. inactive clients under partial participation). When the exact
// total weight is not strictly positive, or a weight is non-finite,
// there is nothing to aggregate: dst is left untouched and false is
// returned. A coordinate whose column hits a non-finite product or an
// accumulator overflow becomes NaN.
func (a *Aggregator) WeightedMean(dst []float64, contribs [][]float64, weights []float64) bool {
	if len(contribs) != len(weights) {
		panic(fmt.Sprintf("fl: %d contributions for %d weights", len(contribs), len(weights)))
	}
	var wlo, whi uint64
	for k, w := range weights {
		if w == 0 {
			continue
		}
		if len(contribs[k]) != len(dst) {
			panic(fmt.Sprintf("fl: contribution %d has length %d, want %d", k, len(contribs[k]), len(dst)))
		}
		plo, phi, ok := fixFromFloat(w)
		if !ok {
			return false
		}
		if wlo, whi, ok = fixAdd(wlo, whi, plo, phi); !ok {
			return false
		}
	}
	if int64(whi) < 0 || (whi == 0 && wlo == 0) {
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

// runChunk reduces one shard [ci·chunk, min(dim, (ci+1)·chunk)). Each
// coordinate's column is summed exactly in 128-bit fixed point; because
// integer addition is associative the shard boundaries (and the worker
// schedule) cannot affect the bits.
func (a *Aggregator) runChunk(ci int) {
	base := ci * a.chunk
	end := base + a.chunk
	if end > len(a.dst) {
		end = len(a.dst)
	}
	dst := a.dst[base:end]
	for j := range dst {
		var slo, shi uint64
		ok := true
		for k, c := range a.contribs {
			w := a.jobW[k]
			if w == 0 {
				continue
			}
			var plo, phi uint64
			if plo, phi, ok = fixFromFloat(w * c[base+j]); ok {
				slo, shi, ok = fixAdd(slo, shi, plo, phi)
			}
			if !ok {
				break
			}
		}
		if !ok {
			dst[j] = math.NaN()
			continue
		}
		dst[j] = fixToFloat(slo, shi) / a.wf
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
	if on && a.reduction == ReduceTrimmed {
		panic("fl: streaming aggregation cannot apply a trimmed reduction")
	}
	a.stream = on
}

// Streaming reports whether streaming collection is enabled.
func (a *Aggregator) Streaming() bool { return a.stream }

// Open begins incremental collection of one round with n client slots,
// discarding any round still in flight. Slot buffers are reused across
// rounds.
func (a *Aggregator) Open(round, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("fl: invalid client count %d", n))
	}
	if a.stream {
		if cap(a.seen) < n {
			a.seen = make([]bool, n)
		}
		a.seen = a.seen[:n]
		for i := range a.seen {
			a.seen[i] = false
		}
		a.psum.Reset()
	} else {
		if cap(a.slots) < n {
			a.slots = make([][]float64, n)
			a.slotW = make([]float64, n)
		}
		a.slots = a.slots[:n]
		a.slotW = a.slotW[:n]
		for i := range a.slots {
			a.slots[i], a.slotW[i] = nil, 0
		}
	}
	a.open, a.round, a.received = true, round, 0
	a.pMode, a.pCount = false, 0
}

// Add stores client id's contribution for the open round. It returns a
// typed error — never panics — on an out-of-range id, a duplicate, a
// payload whose length disagrees with an already-stored one, or any
// non-finite scalar or weight (ErrNonFinite, naming the first offending
// index). In the default mode the slice is stored, not copied; callers
// must not mutate it until the round is reduced or discarded. In
// streaming mode the contribution is folded exactly into the round's
// partial state and the slice is not retained.
func (a *Aggregator) Add(id int, contrib []float64, weight float64) error {
	if !a.open {
		return fmt.Errorf("fl: Add outside an open round")
	}
	if a.pMode {
		return fmt.Errorf("fl: Add into round %d already collecting relay partials", a.round)
	}
	if a.stream {
		if id < 0 || id >= len(a.seen) {
			return fmt.Errorf("fl: client id %d out of range [0,%d)", id, len(a.seen))
		}
		if a.seen[id] {
			return fmt.Errorf("fl: duplicate contribution from client %d in round %d", id, a.round)
		}
		if err := a.psum.Fold(contrib, weight); err != nil {
			return fmt.Errorf("round %d client %d: %w", a.round, id, err)
		}
		a.seen[id] = true
		a.received++
		return nil
	}
	if id < 0 || id >= len(a.slots) {
		return fmt.Errorf("fl: client id %d out of range [0,%d)", id, len(a.slots))
	}
	if a.slots[id] != nil {
		return fmt.Errorf("fl: duplicate contribution from client %d in round %d", id, a.round)
	}
	if contrib == nil {
		// A fully-frozen round's compact payload is legitimately empty, and
		// the wire decoder hands it over as nil; the nil slot would read as
		// an absent client (and a duplicate re-send would slip through).
		contrib = []float64{}
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("%w: round %d client %d weight %v", ErrNonFinite, a.round, id, weight)
	}
	for i := range a.slots {
		if a.slots[i] != nil && len(a.slots[i]) != len(contrib) {
			return fmt.Errorf("%w: round %d client %d payload length %d disagrees with client %d's %d",
				ErrLengthMismatch, a.round, id, len(contrib), i, len(a.slots[i]))
		}
	}
	for j, v := range contrib {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: round %d client %d scalar %d is %v", ErrNonFinite, a.round, id, j, v)
		}
	}
	a.slots[id] = contrib
	a.slotW[id] = weight
	a.received++
	return nil
}

// AddPartial folds a relay's exported partial into the open round — the
// root face of the hierarchy. The aggregator must be in streaming mode,
// and a round that has seen AddPartial refuses plain Adds (and vice
// versa): a round is collected from clients or from relays, never both.
// Validation (dimension, count, weight sign, poison, overflow) is
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
	a.pCount += p.Count
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
	if a.pMode {
		return a.pCount
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
// the configured reduction into dst. In ReduceMean mode the result is
// bit-identical to a one-shot WeightedMean over the same
// (contribs, weights) — and, in streaming or partial-merge rounds, to a
// flat aggregation of every underlying client (the sums are exact, so
// grouping cannot change the bits). ReduceTrimmed applies the
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
	} else if a.reduction == ReduceTrimmed {
		ok = a.TrimmedMean(dst, a.slots, a.slotW, a.trimFrac)
	} else {
		a.lastTrimK, a.lastTrimM = 0, count
		ok = a.WeightedMean(dst, a.slots, a.slotW)
	}
	return count, ok
}

// ExportPartial closes the open round and copies its exact mergeable
// state into p — the relay face of the hierarchy. In streaming mode this
// is a copy of the folded state; otherwise the stored slots are folded
// in id order (identical bits either way: the sums are exact). Returns
// the contribution count and false when no round was open; a round with
// zero contributions exports a valid empty partial.
func (a *Aggregator) ExportPartial(p *Partial) (int, bool) {
	if !a.open {
		return 0, false
	}
	a.open = false
	count := a.received
	if a.stream {
		p.CopyFrom(&a.psum)
		return count, true
	}
	p.Reset()
	for id, c := range a.slots {
		if c == nil {
			continue
		}
		if err := p.Fold(c, a.slotW[id]); err != nil {
			// Stored slots already passed Add's validation; only an
			// accumulator overflow can surface here, and it poisons p
			// for the caller to detect.
			return count, true
		}
	}
	return count, true
}

// Discard drops the in-flight round without aggregating — the crash-
// recovery semantics: partials of an uncommitted round are thrown away
// and the round re-opened, which idempotent client re-sends tolerate.
func (a *Aggregator) Discard() {
	if !a.open {
		return
	}
	for i := range a.slots {
		a.slots[i], a.slotW[i] = nil, 0
	}
	if a.stream {
		for i := range a.seen {
			a.seen[i] = false
		}
		a.psum.Reset()
	}
	a.open, a.received = false, 0
	a.pMode, a.pCount = false, 0
}
