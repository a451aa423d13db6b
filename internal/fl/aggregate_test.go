package fl

import (
	"apf/internal/quantize"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// serialWeightedMean is the unsharded, unpooled reference for the exact
// reduction of admitted contributions: one column at a time, folding
// fixed-point products with fixFromFloat and fixAdd. Any deviation in the
// sharded path's chunking, its block kernel or pool scheduling shows up as
// a bit difference here.
func serialWeightedMean(dst []float64, contribs [][]float64, weights []float64) bool {
	var wlo, whi uint64
	for _, w := range weights {
		if w != 0 {
			plo, phi := fixFromFloat(w)
			wlo, whi = fixAdd(wlo, whi, plo, phi)
		}
	}
	if whi == 0 && wlo == 0 {
		return false
	}
	wf := fixToFloat(wlo, whi)
	for j := range dst {
		var slo, shi uint64
		for k, c := range contribs {
			if weights[k] != 0 {
				plo, phi := fixFromFloat(weights[k] * c[j])
				slo, shi = fixAdd(slo, shi, plo, phi)
			}
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
				if g, w := a.weightedMean(got, contribs, weights), serialWeightedMean(want, contribs, weights); g != w {
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
	if a.weightedMean(dst, [][]float64{nil, nil}, []float64{0, 0}) {
		t.Fatal("weightedMean reported aggregation with zero total weight")
	}
	for j, v := range dst {
		if v != float64(j+1) {
			t.Fatalf("dst[%d] mutated to %v", j, v)
		}
	}
}

// TestWeightedMeanSteadyStateAllocs pins the reduction's memory
// discipline: once the accumulators are sized, weightedMean
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
			a.weightedMean(dst, contribs, weights) // size the accumulators
			n := testing.AllocsPerRun(5, func() {
				if !a.weightedMean(dst, contribs, weights) {
					t.Fatal("nothing aggregated")
				}
			})
			a.Close()
			if n != 0 {
				t.Errorf("dim %d, %d worker(s): steady-state weightedMean allocates %v objects per call, want 0", dim, workers, n)
			}
		}
	}
}

// TestStreamingReduceMatchesOneShot collects rounds incrementally in
// arbitrary arrival order and checks Reduce is bit-exact with the
// one-shot weightedMean over the same clients in id order.
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
		ref.weightedMean(want, contribs, weights)
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
	// So does ExportPartial, and Open refuses more slots than a round folds.
	for name, f := range map[string]func(){
		"ExportPartial on a non-streaming aggregator": func() { b.ExportPartial(&p) },
		"Open past MaxContributors":                   func() { b.Open(1, MaxContributors+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}

	// Streaming and trimmed reduction are mutually exclusive, both ways.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetTrimFraction(0.25) on a streaming aggregator did not panic")
			}
		}()
		c := NewAggregator(1)
		defer c.Close()
		c.SetStreaming(true)
		c.SetTrimFraction(0.25)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetStreaming on a trimmed aggregator did not panic")
			}
		}()
		c := NewAggregator(1)
		defer c.Close()
		c.SetTrimFraction(0.25)
		c.SetStreaming(true)
	}()
}

// TestAddRefusesUnfoldableScalar: a finite scalar whose weighted product
// is 2^43 or more (1e19 at weight 1, or 2^42 at weight 2), or a weight of
// 2^43 or more, is refused by Add with ErrAccumOverflow in both modes,
// before the round changes — the flat aggregator does not reduce it to
// NaN — and both then reduce the honest rest to the same bits as a round
// that never saw it.
func TestAddRefusesUnfoldableScalar(t *testing.T) {
	honest := [][]float64{{0.5, 0.25}, {-0.125, 0.75}}
	weights := []float64{1, 3}
	want := make([]float64, 2)
	ref := NewAggregator(1)
	defer ref.Close()
	if !ref.weightedMean(want, honest, weights) {
		t.Fatal("reference mean failed")
	}
	for _, stream := range []bool{false, true} {
		a := NewAggregator(1)
		defer a.Close()
		a.SetStreaming(stream)
		a.Open(0, 3)
		if err := a.Add(0, honest[0], weights[0]); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []struct {
			contrib []float64
			weight  float64
		}{
			{[]float64{1e19, 0.25}, 1},
			{[]float64{0.5, -0x1p63}, 1},
			{[]float64{0.5, 0x1p62}, 2},
			{[]float64{0.5, 1e300}, 1e10},
			{[]float64{0.5, 0x1p43}, 1},
			{[]float64{-0x1p42, 0.5}, 2},
			{[]float64{0.5, 0.25}, 0x1p43},
		} {
			err := a.Add(2, bad.contrib, bad.weight)
			if !errors.Is(err, ErrAccumOverflow) || errors.Is(err, ErrNonFinite) {
				t.Fatalf("stream=%v: Add(%v at weight %v) = %v, want ErrAccumOverflow", stream, bad.contrib, bad.weight, err)
			}
			if a.Received(2) || a.Count() != 1 {
				t.Fatalf("stream=%v: a refused update changed the round", stream)
			}
		}
		// The largest product the bound admits still folds.
		if err := a.Add(2, []float64{0, 0x1p42}, 1.9999999999999998); err != nil {
			t.Fatalf("stream=%v: in-range product refused: %v", stream, err)
		}
		a.Discard()
		a.Open(1, 3)
		for id, c := range honest {
			if err := a.Add(id, c, weights[id]); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Add(2, []float64{1e19, 0.25}, 1); !errors.Is(err, ErrAccumOverflow) {
			t.Fatalf("stream=%v: got %v, want ErrAccumOverflow", stream, err)
		}
		got := make([]float64, 2)
		if n, ok := a.Reduce(got); !ok || n != 2 ||
			math.Float64bits(got[0]) != math.Float64bits(want[0]) || math.Float64bits(got[1]) != math.Float64bits(want[1]) {
			t.Fatalf("stream=%v: reduced %v (%d contributions, ok %v), want %v", stream, got, n, ok, want)
		}
	}
}

// TestSummedOverflowRefusedPerUpdate: four clients each adding 2^61 at
// weight 1 — every product in the old ±2^63 range, their sum not — are
// each refused at Add with ErrAccumOverflow in both modes, because each
// product alone passes the 2^43 bound; the honest fifth client folds, and
// the flat round, the streaming round and two relays merged at a root all
// reduce to the same finite bits.
func TestSummedOverflowRefusedPerUpdate(t *testing.T) {
	honest := []float64{0.5, 0.25}
	var means [][]float64
	for _, stream := range []bool{false, true} {
		a := NewAggregator(1)
		defer a.Close()
		a.SetStreaming(stream)
		a.Open(0, 5)
		for id := 0; id < 4; id++ {
			if err := a.Add(id, []float64{0x1p61, 0.25}, 1); !errors.Is(err, ErrAccumOverflow) {
				t.Fatalf("stream=%v: client %d: Add = %v, want ErrAccumOverflow", stream, id, err)
			}
		}
		if err := a.Add(4, honest, 1); err != nil {
			t.Fatalf("stream=%v: honest client refused: %v", stream, err)
		}
		got := make([]float64, 2)
		if n, ok := a.Reduce(got); !ok || n != 1 {
			t.Fatalf("stream=%v: Reduce = %d, %v", stream, n, ok)
		}
		means = append(means, got)
	}
	root := NewAggregator(1)
	defer root.Close()
	root.SetStreaming(true)
	root.Open(0, 2)
	for r, ids := range [][]int{{0, 1, 4}, {2, 3}} {
		relay := NewAggregator(1)
		defer relay.Close()
		relay.SetStreaming(true)
		relay.Open(0, 5)
		for _, id := range ids {
			c, want := []float64{0x1p61, 0.25}, ErrAccumOverflow
			if id == 4 {
				c, want = honest, nil
			}
			if err := relay.Add(id, c, 1); !errors.Is(err, want) {
				t.Fatalf("relay %d client %d: Add = %v, want %v", r, id, err, want)
			}
		}
		var p Partial
		relay.ExportPartial(&p)
		if err := root.AddPartial(r, &p); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]float64, 2)
	if _, ok := root.Reduce(got); !ok {
		t.Fatal("root Reduce failed")
	}
	means = append(means, got)
	for i, m := range means {
		if math.Float64bits(m[0]) != math.Float64bits(honest[0]) || math.Float64bits(m[1]) != math.Float64bits(honest[1]) {
			t.Fatalf("path %d reduced %v, want the honest client's %v", i, m, honest)
		}
	}
}

// TestAddRejectsHostileContribution is the poisoned-client regression:
// NaN and Inf scalars, non-finite weights, duplicates, and length
// disagreements all get typed errors, and a rejected contribution leaves
// the round's aggregate unchanged.
func TestAddRejectsHostileContribution(t *testing.T) {
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
	ref.weightedMean(want, [][]float64{good0, good2}, []float64{1, 3})
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

// TestFirstUnfoldableMatchesScan pins Add's flag pass to a per-scalar
// scan of the bound it enforces (|w·x| < 2^43): every IEEE class (NaN
// payloads, finite extremes and subnormals included) and the products on
// either side of 2^43 and of 2^63, at every position, under several
// weights, name the same first scalar and the same cause.
func TestFirstUnfoldableMatchesScan(t *testing.T) {
	below := math.Nextafter(0x1p43, 0)
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 0x1p42, -below, below, 0x1p43, -0x1p43,
		0x1p62, 0x1p63, -0x1p63, 1e19, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000FFFFFFFFFFFFF), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFFFFFFFFFFFFFFF)}
	scan := func(v []float64, w float64) (int, error) {
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return j, ErrNonFinite
			}
			if !(math.Abs(w*x) < 0x1p43) {
				return j, ErrAccumOverflow
			}
		}
		return -1, nil
	}
	for _, w := range []float64{0, 1, 0.5, 2, 1e-300, 1e300} {
		for _, x := range vals {
			for at := 0; at < 3; at++ {
				v := []float64{0.25, -0.5, 0.75}
				v[at] = x
				v = append(v, math.NaN()) // a later bad scalar must not be the one named
				gj, gerr := firstUnfoldable(v, w)
				wj, werr := scan(v, w)
				if gj != wj || gerr != werr {
					t.Fatalf("%v at %d, weight %v: firstUnfoldable = %d, %v; scan = %d, %v", x, at, w, gj, gerr, wj, werr)
				}
			}
		}
	}
	if j, err := firstUnfoldable(nil, 1); j != -1 || err != nil {
		t.Fatalf("empty slice: %d, %v", j, err)
	}
}

// FuzzExactVerdictsAgree holds the flat (stored slots), streaming and
// two-relay→root paths of the exact fold to one overflow rule. The input
// draws up to 8 clients — honest ones (weight 0 or 1, scalars below ½) and
// hostile ones with magnitudes around the 2^43 bound, large and non-finite
// weights and scalars — an arrival order and a client→relay partition;
// the relays' partials travel packed and are parsed against their counts
// (ParsePacked) before the root merges them. Every update must get the
// same verdict on every path, the one its own weight and products decide;
// no honest update may be refused; and the committed models must agree
// (all or none aggregate), be finite, and match bit for bit.
func FuzzExactVerdictsAgree(f *testing.F) {
	f.Add([]byte{5, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{8, 3, 0x81, 4, 43, 0, 0x81, 4, 43, 0, 0x13, 2, 9, 0x82, 1, 44, 0x40, 0x83, 5, 62, 0x97, 6, 0xff, 7})
	f.Add([]byte{3, 1, 0x80, 3, 42, 0x80, 1, 0x80, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		clients, dim := 1+next()%8, 1+next()%4
		weightsOf := []float64{1, 0, 0.5, 3, 0x1p42, 0x1p43, math.Nextafter(0x1p43, 0), math.NaN(), -1, math.Inf(1)}
		contribs := make([][]float64, clients)
		weights := make([]float64, clients)
		relayOf := make([]int, clients)
		honest := make([]bool, clients)
		for k := range contribs {
			kind := next()
			honest[k] = kind&0x80 == 0
			relayOf[k] = kind >> 6 & 1
			c := make([]float64, dim)
			for j := range c {
				if honest[k] {
					c[j] = (float64(next()) - 127.5) / 256 // below ½
					continue
				}
				switch b := next(); b % 16 {
				case 0:
					c[j] = math.NaN()
				case 1:
					c[j] = math.Inf(1 - 2*(b>>4&1))
				case 2:
					c[j] = 0x1p61
				default: // ±(1 + m/256)·2^e, e in [38, 48]
					c[j] = math.Ldexp(1+float64(next())/256, 38+next()%11)
					if b&0x10 != 0 {
						c[j] = -c[j]
					}
				}
			}
			contribs[k] = c
			weights[k] = float64(kind & 1)
			if !honest[k] {
				weights[k] = weightsOf[kind%len(weightsOf)]
			}
		}
		order := make([]int, clients)
		for i := range order {
			order[i] = i
		}
		for i := clients - 1; i > 0; i-- {
			j := next() % (i + 1)
			order[i], order[j] = order[j], order[i]
		}

		// The verdict the rule gives each update on its own.
		want := make([]bool, clients)
		for k, c := range contribs {
			w := weights[k]
			want[k] = w >= 0 && w < 0x1p43
			for _, x := range c {
				want[k] = want[k] && math.Abs(w*x) < 0x1p43
			}
			if honest[k] && !want[k] {
				t.Fatalf("client %d: honest update %v at weight %v out of bound", k, c, w)
			}
		}
		check := func(path string, k int, err error) {
			if (err == nil) != want[k] {
				t.Fatalf("%s: client %d (%v at weight %v): Add = %v, want admitted %v", path, k, contribs[k], weights[k], err, want[k])
			}
			if err != nil && !errors.Is(err, ErrAccumOverflow) && !errors.Is(err, ErrNonFinite) {
				t.Fatalf("%s: client %d refused with an untyped error: %v", path, k, err)
			}
		}

		var means [][]float64
		var oks []bool
		for _, stream := range []bool{false, true} {
			a := NewAggregator(1)
			a.SetStreaming(stream)
			a.Open(0, clients)
			for _, k := range order {
				check(fmt.Sprintf("stream=%v", stream), k, a.Add(k, contribs[k], weights[k]))
			}
			dst := make([]float64, dim)
			_, ok := a.Reduce(dst)
			a.Close()
			means, oks = append(means, dst), append(oks, ok)
		}

		root := NewAggregator(1)
		defer root.Close()
		root.SetStreaming(true)
		root.Open(0, 2)
		for r := 0; r < 2; r++ {
			relay := NewAggregator(1)
			relay.SetStreaming(true)
			relay.Open(0, clients)
			for _, k := range order {
				if relayOf[k] == r {
					check(fmt.Sprintf("relay %d", r), k, relay.Add(k, contribs[k], weights[k]))
				}
			}
			var p Partial
			relay.ExportPartial(&p)
			relay.Close()
			view, err := ParsePacked(p.Dim(), p.Count, p.AppendPacked(nil))
			if err != nil || !SumFits(p.Count, p.WeightLo, p.WeightHi) {
				t.Fatalf("relay %d: its own partial fails the decoder's checks: %v", r, err)
			}
			if err := root.AddPartial(r, &Partial{Count: p.Count, WeightLo: p.WeightLo, WeightHi: p.WeightHi, Packed: view}); err != nil {
				t.Fatalf("root merge of relay %d: %v", r, err)
			}
		}
		dst := make([]float64, dim)
		_, ok := root.Reduce(dst)
		means, oks = append(means, dst), append(oks, ok)

		for i := range means {
			if oks[i] != oks[0] {
				t.Fatalf("path %d aggregated=%v, path 0 %v", i, oks[i], oks[0])
			}
			if !oks[0] {
				continue
			}
			for j, x := range means[i] {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Float64bits(x) != math.Float64bits(means[0][j]) {
					t.Fatalf("path %d coordinate %d = %v, path 0 %v", i, j, x, means[0][j])
				}
			}
		}
	})
}
