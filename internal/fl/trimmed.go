package fl

import "fmt"

// SetTrimFraction selects the reduction Reduce applies to subsequent
// rounds by its per-side trim fraction. 0 (the default) is the classic
// weighted FedAvg: every accepted contribution participates with weight
// w/ΣW. A fraction in (0, 0.5) is the coordinate-wise trimmed mean: on
// each coordinate the k lowest and k highest values are dropped and the
// survivors are weighted-averaged. It bounds the influence any single (or
// any k) Byzantine contribution can exert on any coordinate — including
// attacks a magnitude gate cannot see, like sign flips and norm-matched
// scalers. With one survivor per coordinate it degrades to the
// coordinate-wise median. Trimming half or more from each side would
// leave no survivors, and a streaming aggregator holds no per-client
// values to trim, so both panic.
func (a *Aggregator) SetTrimFraction(frac float64) {
	if !(frac >= 0 && frac < 0.5) {
		panic(fmt.Sprintf("fl: trim fraction %v outside [0, 0.5)", frac))
	}
	if frac > 0 && a.stream {
		panic("fl: streaming aggregation cannot apply a trimmed reduction")
	}
	a.trimFrac = frac
}

// LastTrim reports the per-side trim depth k and participant count m of
// the most recent trimmed reduction (k = 0 when the last reduction was a
// plain mean, including the degenerate trimmed cases below).
func (a *Aggregator) LastTrim() (k, m int) { return a.lastTrimK, a.lastTrimM }

// trimK derives the per-side trim depth for m participants: at least one
// value per side once trimming is on, never so many that no survivor
// remains. m <= 2 cannot trim (k = 0 → plain weighted mean).
func trimK(m int, frac float64) int {
	k := int(frac * float64(m))
	if k < 1 {
		k = 1
	}
	if max := (m - 1) / 2; k > max {
		k = max
	}
	if k < 0 {
		k = 0
	}
	return k
}

// trimPair is one (value, weight) sample of a coordinate's column.
type trimPair struct{ v, w float64 }

// trimmedMean fills dst[j] with the coordinate-wise trimmed weighted mean
// of the admitted contributions: on each coordinate the k lowest and k
// highest values are dropped (k from trimK of the participant count and
// frac) and the survivors averaged by their weights. Clients with weight 0
// are skipped exactly as in weightedMean; when no trimming is possible
// (k = 0, i.e. fewer than 3 participants or frac <= 0) the result is
// bit-identical to weightedMean over the same inputs — same operations in
// the same order. Columns are sorted by (value, weight), so the output is
// invariant under any permutation of the client order. Returns false when
// the total weight is 0 (dst untouched).
func (a *Aggregator) trimmedMean(dst []float64, contribs [][]float64, weights []float64, frac float64) bool {
	totalW := 0.0
	m := 0
	for k, w := range weights {
		if w == 0 {
			continue
		}
		if len(contribs[k]) != len(dst) {
			panic(fmt.Sprintf("fl: contribution %d has length %d, want %d", k, len(contribs[k]), len(dst)))
		}
		totalW += w
		m++
	}
	if totalW <= 0 {
		return false
	}
	k := 0
	if frac > 0 {
		k = trimK(m, frac)
	}
	a.lastTrimK, a.lastTrimM = k, m
	if k == 0 {
		// Degenerate case: nothing to trim. Run the exact weightedMean op
		// sequence so trim-fraction-0 is bit-identical to FedAvg.
		return a.weightedMean(dst, contribs, weights)
	}

	// Compact the participant list once; the per-coordinate loop then
	// indexes dense slices instead of re-skipping zero weights.
	a.tContribs = a.tContribs[:0]
	a.tWeights = a.tWeights[:0]
	for i, w := range weights {
		if w == 0 {
			continue
		}
		a.tContribs = append(a.tContribs, contribs[i])
		a.tWeights = append(a.tWeights, w)
	}

	dim := len(dst)
	chunk := (dim + a.pool.workers*4 - 1) / (a.pool.workers * 4)
	if chunk < minChunk {
		chunk = minChunk
	}
	nChunks := (dim + chunk - 1) / chunk
	for len(a.trimScratch) < nChunks {
		a.trimScratch = append(a.trimScratch, nil)
	}

	a.dst, a.chunk, a.trimDepth = dst, chunk, k
	if nChunks <= 1 {
		a.runTrimChunk(0)
	} else {
		a.pool.Do(nChunks, a.runTrimFn)
	}
	a.dst = nil
	return true
}

// runTrimChunk reduces one shard [ci·chunk, min(dim, (ci+1)·chunk)) by
// the coordinate-wise trimmed mean. Each chunk owns its scratch column,
// so concurrent chunks never share buffers.
func (a *Aggregator) runTrimChunk(ci int) {
	lo := ci * a.chunk
	hi := lo + a.chunk
	if hi > len(a.dst) {
		hi = len(a.dst)
	}
	dst := a.dst[lo:hi]
	m := len(a.tContribs)
	col := a.trimScratch[ci]
	if cap(col) < m {
		col = make([]trimPair, m)
		a.trimScratch[ci] = col
	}
	col = col[:m]
	k := a.trimDepth
	for j := range dst {
		for i, c := range a.tContribs {
			col[i] = trimPair{v: c[lo+j], w: a.tWeights[i]}
		}
		// Insertion sort by (value, weight): m is the client count — tiny
		// against the coordinate count — and the (v, w) key makes the
		// order a pure function of the multiset, so any client
		// permutation yields bit-identical output.
		for i := 1; i < m; i++ {
			p := col[i]
			t := i - 1
			for t >= 0 && (col[t].v > p.v || (col[t].v == p.v && col[t].w > p.w)) {
				col[t+1] = col[t]
				t--
			}
			col[t+1] = p
		}
		if m-2*k == 1 {
			// Single survivor: the coordinate-wise median, taken exactly
			// rather than through a (w·v)/w round trip.
			dst[j] = col[k].v
			continue
		}
		var sw, swv float64
		for t := k; t < m-k; t++ {
			swv += col[t].w * col[t].v
			sw += col[t].w
		}
		dst[j] = swv / sw
	}
}
