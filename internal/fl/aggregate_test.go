package fl

import (
	"apf/internal/quantize"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// serialWeightedMean is the unsharded, unpooled reference for the exact
// reduction: one column at a time, folding fixed-point products with the
// same primitives the Aggregator shards. Any deviation in the sharded
// path's chunking or pool scheduling shows up as a bit difference here.
func serialWeightedMean(dst []float64, contribs [][]float64, weights []float64) bool {
	var wlo, whi uint64
	for _, w := range weights {
		if w == 0 {
			continue
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
	wf := fixToFloat(wlo, whi)
	for j := range dst {
		var slo, shi uint64
		for k, c := range contribs {
			if weights[k] == 0 {
				continue
			}
			plo, phi, _ := fixFromFloat(weights[k] * c[j])
			slo, shi, _ = fixAdd(slo, shi, plo, phi)
		}
		dst[j] = fixToFloat(slo, shi) / wf
	}
	return true
}

// TestWeightedMeanMatchesSerial checks the sharded reduction is bit-exact
// against the serial loop across dimensions spanning the single-chunk fast
// path, ragged tails, and many-chunk fan-out, including zero-weight clients
// with nil contributions (inactive under partial participation). Run under
// -race this also exercises the pool's publish/retire synchronization over
// many back-to-back jobs.
func TestWeightedMeanMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 3, 8} {
		a := NewAggregator(workers)
		for _, dim := range []int{1, 100, minChunk, minChunk + 1, 8*minChunk + 37} {
			for _, clients := range []int{1, 7} {
				contribs := make([][]float64, clients)
				weights := make([]float64, clients)
				for k := range contribs {
					if k%3 == 2 {
						// Inactive client: no contribution this round.
						contribs[k], weights[k] = nil, 0
						continue
					}
					contribs[k] = make([]float64, dim)
					for j := range contribs[k] {
						contribs[k][j] = rng.NormFloat64()
					}
					weights[k] = rng.Float64() + 0.1
				}
				got := make([]float64, dim)
				want := make([]float64, dim)
				if g, w := a.WeightedMean(got, contribs, weights), serialWeightedMean(want, contribs, weights); g != w {
					t.Fatalf("workers=%d dim=%d clients=%d aggregated=%v, serial says %v", workers, dim, clients, g, w)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("workers=%d dim=%d clients=%d element %d = %v, want %v (not bit-exact)", workers, dim, clients, j, got[j], want[j])
					}
				}
			}
		}
		a.Close()
	}
}

// TestWeightedMeanZeroTotalWeightLeavesDst verifies the "nothing to
// aggregate" contract: dst keeps the previous global untouched.
func TestWeightedMeanZeroTotalWeightLeavesDst(t *testing.T) {
	a := NewAggregator(2)
	defer a.Close()
	dst := []float64{1, 2, 3}
	if a.WeightedMean(dst, [][]float64{nil, nil}, []float64{0, 0}) {
		t.Fatal("WeightedMean reported aggregation with zero total weight")
	}
	for j, v := range dst {
		if v != float64(j+1) {
			t.Fatalf("dst[%d] mutated to %v", j, v)
		}
	}
}

// TestWeightedMeanSteadyStateAllocs pins the reduction's memory
// discipline: once the accumulators are sized, a one-shot WeightedMean
// allocates nothing, on one worker or four, at a dimension that splits
// into a few shards and one that splits into many.
func TestWeightedMeanSteadyStateAllocs(t *testing.T) {
	const clients = 10
	for _, dim := range []int{10_000, 100_000} {
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		for c := range contribs {
			contribs[c] = make([]float64, dim)
			for j := range contribs[c] {
				contribs[c][j] = float64((j+c)%17) - 8
			}
			weights[c] = 1 + float64(c%3)
		}
		dst := make([]float64, dim)
		for _, workers := range []int{1, 4} {
			a := NewAggregator(workers)
			a.WeightedMean(dst, contribs, weights) // size the accumulators
			n := testing.AllocsPerRun(5, func() {
				if !a.WeightedMean(dst, contribs, weights) {
					t.Fatal("nothing aggregated")
				}
			})
			a.Close()
			if n != 0 {
				t.Errorf("dim %d, %d worker(s): steady-state WeightedMean allocates %v objects per call, want 0", dim, workers, n)
			}
		}
	}
}

// TestStreamingReduceMatchesOneShot collects rounds incrementally in
// arbitrary arrival order and checks Reduce is bit-exact with the
// one-shot WeightedMean over the same clients in id order.
func TestStreamingReduceMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := NewAggregator(3)
	defer a.Close()
	ref := NewAggregator(1)
	defer ref.Close()

	const clients, dim = 5, 2*minChunk + 11
	for round := 0; round < 4; round++ {
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		for k := range contribs {
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				contribs[k][j] = rng.NormFloat64()
			}
			weights[k] = rng.Float64() + 0.1
		}

		a.Open(round, clients)
		for _, id := range rng.Perm(clients) { // arrival order must not matter
			if err := a.Add(id, contribs[id], weights[id]); err != nil {
				t.Fatalf("round %d Add(%d): %v", round, id, err)
			}
		}
		if a.Count() != clients || a.Dim() != dim {
			t.Fatalf("round %d: count=%d dim=%d", round, a.Count(), a.Dim())
		}
		got := make([]float64, dim)
		count, ok := a.Reduce(got)
		if !ok || count != clients {
			t.Fatalf("round %d Reduce: count=%d ok=%v", round, count, ok)
		}
		want := make([]float64, dim)
		ref.WeightedMean(want, contribs, weights)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d element %d = %v, want %v (not bit-exact)", round, j, got[j], want[j])
			}
		}
	}
}

// TestStreamingAndPartialModesBitExact drives the three collection modes
// — stored slots, streaming folds, and a two-tier relay split exporting
// and re-merging partials — over the same clients and requires all of
// them to reduce to identical bits, dropped clients included.
func TestStreamingAndPartialModesBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const clients, relays, dim = 11, 3, minChunk + 7
	for round := 0; round < 3; round++ {
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		for k := range contribs {
			if k%5 == 4 {
				continue // dropped client: no contribution this round
			}
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				contribs[k][j] = rng.NormFloat64()
			}
			weights[k] = rng.Float64() + 0.1
		}

		// Reference: the default stored-slot path.
		flat := NewAggregator(2)
		flat.Open(round, clients)
		for k := range contribs {
			if contribs[k] == nil {
				continue
			}
			if err := flat.Add(k, contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		want := make([]float64, dim)
		wantCount, ok := flat.Reduce(want)
		flat.Close()
		if !ok {
			t.Fatal("flat Reduce failed")
		}

		// Streaming: same clients in random arrival order, nothing retained.
		stream := NewAggregator(2)
		stream.SetStreaming(true)
		stream.Open(round, clients)
		for _, k := range rng.Perm(clients) {
			if contribs[k] == nil {
				continue
			}
			if err := stream.Add(k, contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]float64, dim)
		count, ok := stream.Reduce(got)
		stream.Close()
		if !ok || count != wantCount {
			t.Fatalf("streaming Reduce: count=%d ok=%v, want %d", count, ok, wantCount)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d streaming element %d = %v, want %v", round, j, got[j], want[j])
			}
		}

		// Two-tier: clients partitioned across relays, partials exported
		// and merged at a root in random order.
		parts := make([]Partial, relays)
		for r := range parts {
			relay := NewAggregator(1)
			relay.SetStreaming(true)
			relay.Open(round, clients)
			for k := range contribs {
				if contribs[k] == nil || k%relays != r {
					continue
				}
				if err := relay.Add(k, contribs[k], weights[k]); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := relay.ExportPartial(&parts[r]); !ok {
				t.Fatalf("relay %d ExportPartial failed", r)
			}
			relay.Close()
		}
		root := NewAggregator(2)
		root.SetStreaming(true)
		root.Open(round, relays)
		for _, r := range rng.Perm(relays) {
			if err := root.AddPartial(r, &parts[r]); err != nil {
				t.Fatal(err)
			}
		}
		if root.Count() != relays || root.ClientCount() != wantCount {
			t.Fatalf("root counts: relays=%d clients=%d, want %d/%d",
				root.Count(), root.ClientCount(), relays, wantCount)
		}
		got2 := make([]float64, dim)
		if _, ok := root.Reduce(got2); !ok {
			t.Fatal("root Reduce failed")
		}
		root.Close()
		for j := range want {
			if got2[j] != want[j] {
				t.Fatalf("round %d two-tier element %d = %v, want %v", round, j, got2[j], want[j])
			}
		}

		// Non-streaming export folds the stored slots to the same partial.
		slotted := NewAggregator(1)
		slotted.Open(round, clients)
		for k := range contribs {
			if contribs[k] == nil {
				continue
			}
			if err := slotted.Add(k, contribs[k], weights[k]); err != nil {
				t.Fatal(err)
			}
		}
		var fromSlots, fromStream Partial
		if _, ok := slotted.ExportPartial(&fromSlots); !ok {
			t.Fatal("slotted ExportPartial failed")
		}
		slotted.Close()
		for _, p := range parts {
			if err := fromStream.Merge(&p); err != nil {
				t.Fatal(err)
			}
		}
		if fromSlots.Count != fromStream.Count ||
			fromSlots.WeightLo != fromStream.WeightLo || fromSlots.WeightHi != fromStream.WeightHi {
			t.Fatal("slot-fold and stream-fold partials disagree on weight/count")
		}
		for i := range fromSlots.Cols {
			if fromSlots.Cols[i] != fromStream.Cols[i] {
				t.Fatalf("slot-fold and stream-fold partials disagree at column word %d", i)
			}
		}
	}
}

// TestStreamingAddValidation pins the streaming-mode guards: duplicates,
// out-of-range ids, poisoned payloads, mode mixing, and the
// streaming/trimmed incompatibility.
func TestStreamingAddValidation(t *testing.T) {
	a := NewAggregator(1)
	defer a.Close()
	a.SetStreaming(true)
	a.Open(0, 3)
	if err := a.Add(0, []float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(0, []float64{1, 2}, 1); err == nil {
		t.Fatal("streaming duplicate accepted")
	}
	if err := a.Add(5, []float64{1, 2}, 1); err == nil {
		t.Fatal("streaming out-of-range id accepted")
	}
	if err := a.Add(1, []float64{math.NaN(), 2}, 1); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("streaming NaN err = %v", err)
	}
	if err := a.Add(1, []float64{1}, 1); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("streaming length mismatch err = %v", err)
	}
	if a.Count() != 1 || !a.Received(0) || a.Received(1) {
		t.Fatalf("streaming guards mutated state: count=%d", a.Count())
	}
	if a.Dim() != 2 {
		t.Fatalf("streaming Dim = %d", a.Dim())
	}
	var p Partial
	if err := p.Fold([]float64{3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPartial(1, &p); err == nil {
		t.Fatal("AddPartial mixed into a client round")
	}

	// And the converse: a partial round refuses plain Adds.
	a.Discard()
	a.Open(1, 3)
	if err := a.AddPartial(0, &p); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(1, []float64{1, 2}, 1); err == nil {
		t.Fatal("Add mixed into a partial round")
	}

	// AddPartial needs streaming mode.
	b := NewAggregator(1)
	defer b.Close()
	b.Open(0, 2)
	if err := b.AddPartial(0, &p); err == nil {
		t.Fatal("AddPartial accepted on a non-streaming aggregator")
	}

	// Streaming and trimmed reduction are mutually exclusive, both ways.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetReduction(trimmed) on a streaming aggregator did not panic")
			}
		}()
		c := NewAggregator(1)
		defer c.Close()
		c.SetStreaming(true)
		c.SetReduction(ReduceTrimmed, 0.25)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetStreaming on a trimmed aggregator did not panic")
			}
		}()
		c := NewAggregator(1)
		defer c.Close()
		c.SetReduction(ReduceTrimmed, 0.25)
		c.SetStreaming(true)
	}()
}

// TestAddRejectsPoisonedContribution is the poisoned-client regression:
// NaN and Inf scalars, non-finite weights, duplicates, and length
// disagreements all get typed errors, and a rejected contribution leaves
// the round's aggregate unchanged.
func TestAddRejectsPoisonedContribution(t *testing.T) {
	a := NewAggregator(1)
	defer a.Close()
	a.Open(0, 3)

	good0 := []float64{1, 2, 3}
	good2 := []float64{4, 5, 6}
	if err := a.Add(0, good0, 1); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		id      int
		contrib []float64
		weight  float64
		finite  bool // expect ErrNonFinite specifically
	}{
		{"nan scalar", 1, []float64{1, math.NaN(), 3}, 1, true},
		{"inf scalar", 1, []float64{math.Inf(1), 2, 3}, 1, true},
		{"nan weight", 1, good2, math.NaN(), true},
		{"inf weight", 1, good2, math.Inf(-1), true},
		{"negative weight", 1, good2, -2, true},
		{"id out of range", 7, good2, 1, false},
		{"duplicate", 0, good0, 1, false},
		{"length disagreement", 1, []float64{1, 2}, 1, false},
	}
	for _, tc := range cases {
		err := a.Add(tc.id, tc.contrib, tc.weight)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if tc.finite != errors.Is(err, ErrNonFinite) {
			t.Fatalf("%s: err = %v, ErrNonFinite match = %v", tc.name, err, !tc.finite)
		}
	}
	if a.Count() != 1 || a.Received(1) {
		t.Fatalf("rejected contributions counted: count=%d received(1)=%v", a.Count(), a.Received(1))
	}

	// The surviving clients aggregate as if the poisoned one never sent.
	if err := a.Add(2, good2, 3); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 3)
	if _, ok := a.Reduce(got); !ok {
		t.Fatal("Reduce failed")
	}
	want := make([]float64, 3)
	ref := NewAggregator(1)
	defer ref.Close()
	ref.WeightedMean(want, [][]float64{good0, good2}, []float64{1, 3})
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("element %d = %v, want %v", j, got[j], want[j])
		}
	}
}

// TestDiscardDropsRound checks crash-recovery semantics: a discarded
// round leaves no trace and the aggregator reopens cleanly.
func TestDiscardDropsRound(t *testing.T) {
	a := NewAggregator(1)
	defer a.Close()
	a.Open(0, 2)
	if err := a.Add(0, []float64{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	a.Discard()
	if a.Count() != 0 || a.Received(0) {
		t.Fatalf("discard left state: count=%d", a.Count())
	}
	if _, ok := a.Reduce(make([]float64, 2)); ok {
		t.Fatal("Reduce succeeded on a discarded round")
	}
	a.Open(1, 2)
	if err := a.Add(0, []float64{3, 4}, 1); err != nil {
		t.Fatalf("reopen after discard: %v", err)
	}
}

// TestPoolDoBarrier stresses the pool barrier: every index of every job
// must run exactly once, with full completion before Do returns, across
// jobs both wider and narrower than the worker count.
func TestPoolDoBarrier(t *testing.T) {
	p := newWorkerPool(4)
	defer p.Close()
	for job := 0; job < 200; job++ {
		n := 1 + job%13
		hits := make([]int32, n)
		p.Do(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("job %d index %d ran %d times", job, i, h)
			}
		}
	}
}

// TestRelayMergePropertyRandomPartitions is the hierarchy's property test:
// for random client populations, random client→relay assignments (empty
// relays included), random dropped clients, and contributions drawn both
// as raw doubles and as binary16-representable values (the sparse/q16
// codec's image under quantize.RoundTripSlice), the root's merge of relay
// partials must reduce to exactly the bits a flat aggregator over the
// same surviving clients produces.
func TestRelayMergePropertyRandomPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		clients := 1 + rng.Intn(20)
		relays := 1 + rng.Intn(5)
		dim := 1 + rng.Intn(200)
		q16 := trial%2 == 1
		assign := make([]int, clients)
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		alive := 0
		for k := range contribs {
			assign[k] = rng.Intn(relays)
			if rng.Float64() < 0.25 && alive > 0 {
				continue // dropped client (keep at least one contributor)
			}
			alive++
			contribs[k] = make([]float64, dim)
			for j := range contribs[k] {
				if rng.Float64() < 0.3 {
					continue // sparse coordinate: frozen, rides as zero
				}
				contribs[k][j] = math.Ldexp(rng.NormFloat64(), rng.Intn(20)-10)
			}
			if q16 {
				contribs[k] = quantize.RoundTripSlice(contribs[k])
			}
			weights[k] = rng.Float64()*5 + 0.01
		}

		flat := NewAggregator(2)
		flat.SetStreaming(true)
		flat.Open(0, clients)
		for _, k := range rng.Perm(clients) {
			if contribs[k] == nil {
				continue
			}
			if err := flat.Add(k, contribs[k], weights[k]); err != nil {
				t.Fatalf("trial %d flat Add: %v", trial, err)
			}
		}
		want := make([]float64, dim)
		wantCount, ok := flat.Reduce(want)
		flat.Close()
		if !ok || wantCount != alive {
			t.Fatalf("trial %d: flat Reduce count=%d ok=%v, want %d", trial, wantCount, ok, alive)
		}

		parts := make([]Partial, relays)
		for r := range parts {
			edge := NewAggregator(1)
			edge.SetStreaming(true)
			edge.Open(0, clients)
			for k := range contribs {
				if contribs[k] == nil || assign[k] != r {
					continue
				}
				if err := edge.Add(k, contribs[k], weights[k]); err != nil {
					t.Fatalf("trial %d relay %d Add: %v", trial, r, err)
				}
			}
			if _, ok := edge.ExportPartial(&parts[r]); !ok {
				t.Fatalf("trial %d relay %d ExportPartial failed", trial, r)
			}
			edge.Close()
		}

		root := NewAggregator(2)
		root.SetStreaming(true)
		root.Open(0, relays)
		for _, r := range rng.Perm(relays) {
			if err := root.AddPartial(r, &parts[r]); err != nil {
				t.Fatalf("trial %d root AddPartial(%d): %v", trial, r, err)
			}
		}
		if got := root.ClientCount(); got != alive {
			t.Fatalf("trial %d: root ClientCount = %d, want %d", trial, got, alive)
		}
		got := make([]float64, dim)
		_, ok = root.Reduce(got)
		root.Close()
		if !ok {
			t.Fatalf("trial %d: root Reduce failed", trial)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (clients=%d relays=%d dim=%d q16=%v): element %d = %v, want %v",
					trial, clients, relays, dim, q16, j, got[j], want[j])
			}
		}
	}
}
