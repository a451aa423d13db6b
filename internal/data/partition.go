package data

import (
	"fmt"
	"math/rand"

	"apf/internal/stats"
	"apf/internal/tensor"
)

// PartitionIID shuffles sample indices and deals them round-robin to
// clients, producing (near-)identical local distributions.
func PartitionIID(rng *rand.Rand, n, clients int) [][]int {
	if clients <= 0 {
		panic(fmt.Sprintf("data: invalid client count %d", clients))
	}
	perm := rng.Perm(n)
	out := make([][]int, clients)
	for i, idx := range perm {
		c := i % clients
		out[c] = append(out[c], idx)
	}
	return out
}

// PartitionDirichlet synthesizes non-IID local datasets as in the paper's
// §7.1: for every class, a Dirichlet(alpha) draw over clients decides what
// share of that class each client receives. Smaller alpha means more
// skewed (less IID) splits; every sample is assigned to exactly one client.
func PartitionDirichlet(rng *rand.Rand, labels []int, classes, clients int, alpha float64) [][]int {
	if clients <= 0 || classes <= 0 {
		panic(fmt.Sprintf("data: invalid partition geometry classes=%d clients=%d", classes, clients))
	}
	byClass := make([][]int, classes)
	for i, y := range labels {
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("data: label %d out of range [0,%d)", y, classes))
		}
		byClass[y] = append(byClass[y], i)
	}
	out := make([][]int, clients)
	for c := 0; c < classes; c++ {
		idxs := byClass[c]
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		shares := stats.Dirichlet(rng, alpha, clients)
		// Convert shares to cumulative cut points over this class's samples.
		start := 0
		cum := 0.0
		for k := 0; k < clients; k++ {
			cum += shares[k]
			end := int(cum*float64(len(idxs)) + 0.5)
			if k == clients-1 {
				end = len(idxs)
			}
			if end > len(idxs) {
				end = len(idxs)
			}
			if end > start {
				out[k] = append(out[k], idxs[start:end]...)
			}
			start = end
		}
	}
	return out
}

// PartitionByClass gives every client exactly classesPerClient distinct
// label classes (the paper's "extremely non-IID" setup, e.g. 5 clients × 2
// CIFAR classes in §7.3). Classes are assigned round-robin and each class's
// samples are divided evenly among the clients hosting it.
func PartitionByClass(rng *rand.Rand, labels []int, classes, clients, classesPerClient int) [][]int {
	if classesPerClient <= 0 || classesPerClient > classes {
		panic(fmt.Sprintf("data: classesPerClient %d out of range (1..%d)", classesPerClient, classes))
	}
	byClass := make([][]int, classes)
	for i, y := range labels {
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("data: label %d out of range [0,%d)", y, classes))
		}
		byClass[y] = append(byClass[y], i)
	}
	for _, idxs := range byClass {
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
	}

	// hosts[c] lists the clients hosting class c.
	hosts := make([][]int, classes)
	for k := 0; k < clients; k++ {
		for j := 0; j < classesPerClient; j++ {
			c := (k*classesPerClient + j) % classes
			hosts[c] = append(hosts[c], k)
		}
	}

	out := make([][]int, clients)
	for c := 0; c < classes; c++ {
		hs := hosts[c]
		if len(hs) == 0 {
			continue // class unused under this geometry
		}
		idxs := byClass[c]
		per := len(idxs) / len(hs)
		for hi, k := range hs {
			start := hi * per
			end := start + per
			if hi == len(hs)-1 {
				end = len(idxs)
			}
			out[k] = append(out[k], idxs[start:end]...)
		}
	}
	return out
}

// Batcher yields shuffled mini-batches from a subset of a dataset,
// reshuffling at every epoch boundary. Each client owns one Batcher seeded
// from its own RNG stream. It gathers every batch into one tensor and label
// slice of its own, so a batch is valid until the next Next (the layer
// workspace contract of internal/nn).
type Batcher struct {
	ds      *Dataset
	indices []int
	batch   int
	rng     *rand.Rand
	pos     int
	x       *tensor.Tensor
	labels  []int
}

// NewBatcher constructs a batcher over ds restricted to indices.
func NewBatcher(ds *Dataset, indices []int, batchSize int, rng *rand.Rand) *Batcher {
	if batchSize <= 0 {
		panic(fmt.Sprintf("data: invalid batch size %d", batchSize))
	}
	if len(indices) == 0 {
		panic("data: batcher needs at least one sample")
	}
	n := min(batchSize, len(indices))
	b := &Batcher{
		ds:      ds,
		indices: append([]int(nil), indices...),
		batch:   n,
		rng:     rng,
		x:       tensor.New(append([]int{n}, ds.sampleShape()...)...),
		labels:  make([]int, n),
	}
	b.shuffle()
	return b
}

// shuffle permutes the index order for a new epoch.
func (b *Batcher) shuffle() {
	b.rng.Shuffle(len(b.indices), func(i, j int) {
		b.indices[i], b.indices[j] = b.indices[j], b.indices[i]
	})
	b.pos = 0
}

// Len returns the number of samples the batcher draws from.
func (b *Batcher) Len() int { return len(b.indices) }

// Next returns the next mini-batch tensor and labels, wrapping (and
// reshuffling) at epoch boundaries. Batches are full-sized; a final short
// remainder is folded into the next epoch. When the subset holds fewer
// samples than one batch, the whole subset is returned. Both results are
// the batcher's own and are overwritten by the next call.
func (b *Batcher) Next() (*tensor.Tensor, []int) {
	if b.pos+b.batch > len(b.indices) {
		b.shuffle()
	}
	b.ds.gatherInto(b.x, b.labels, b.indices[b.pos:b.pos+b.batch])
	b.pos += b.batch
	return b.x, b.labels
}
