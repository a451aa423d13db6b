// Package perturb implements the paper's *effective perturbation* metric —
// the stability measure at the heart of APF (§3.2, Eq. 1/2) — in both its
// exact windowed form (used for the motivating studies of Figs. 1-3/7) and
// the memory-efficient exponential-moving-average form actually used by
// the APF manager (§6.1, Eq. 17).
//
// Effective perturbation of one scalar over a set of recent updates u_i is
//
//	P = |Σ u_i| / Σ |u_i|  ∈ [0, 1],
//
// close to 1 when updates march in one direction and close to 0 when they
// oscillate (counteract each other). A scalar whose P drops below a
// stability threshold is considered stable/mature.
package perturb

import (
	"fmt"
	"math"

	"apf/internal/bitset"
)

// WindowTracker computes the exact windowed effective perturbation over the
// last Window update vectors. Memory cost is O(dim·window); it exists for
// analysis and tests, while production code uses EMATracker.
type WindowTracker struct {
	dim    int
	window int

	ring  [][]float64
	next  int
	count int

	sum    []float64 // Σ u_i over the window
	absSum []float64 // Σ |u_i| over the window
}

// NewWindowTracker constructs a tracker over dim scalars with the given
// window length (the paper's S).
func NewWindowTracker(dim, window int) *WindowTracker {
	if dim <= 0 || window <= 0 {
		panic(fmt.Sprintf("perturb: invalid tracker dims dim=%d window=%d", dim, window))
	}
	w := &WindowTracker{
		dim:    dim,
		window: window,
		ring:   make([][]float64, window),
		sum:    make([]float64, dim),
		absSum: make([]float64, dim),
	}
	for i := range w.ring {
		w.ring[i] = make([]float64, dim)
	}
	return w
}

// Observe appends one update vector (x_k - x_{k-1}), evicting the oldest
// when the window is full.
func (w *WindowTracker) Observe(update []float64) {
	if len(update) != w.dim {
		panic(fmt.Sprintf("perturb: update length %d, want %d", len(update), w.dim))
	}
	old := w.ring[w.next]
	if w.count == w.window {
		for j, v := range old {
			w.sum[j] -= v
			w.absSum[j] -= math.Abs(v)
		}
	} else {
		w.count++
	}
	copy(old, update)
	for j, v := range update {
		w.sum[j] += v
		w.absSum[j] += math.Abs(v)
	}
	w.next = (w.next + 1) % w.window
}

// Observed returns how many updates are currently in the window.
func (w *WindowTracker) Observed() int { return w.count }

// Perturbation returns the effective perturbation of scalar j. A scalar
// with no accumulated movement is defined as perfectly stable (0).
func (w *WindowTracker) Perturbation(j int) float64 {
	return ratio(w.sum[j], w.absSum[j])
}

// PerturbationAll fills dst (allocated when nil or mis-sized) with the
// effective perturbation of every scalar.
func (w *WindowTracker) PerturbationAll(dst []float64) []float64 {
	if len(dst) != w.dim {
		dst = make([]float64, w.dim)
	}
	for j := range dst {
		dst[j] = ratio(w.sum[j], w.absSum[j])
	}
	return dst
}

// EMATracker computes effective perturbation with exponential moving
// averages (Eq. 17): E tracks the smoothed update, A the smoothed absolute
// update, and P = |E|/A. Memory cost is O(dim) regardless of history.
//
// Each scalar's averages are seeded from its own first genuine
// observation. Seeding is tracked per scalar — not by a tracker-global
// first-call flag — because masked observation streams (frozen parameters
// are skipped) deliver different scalars their first update at different
// times; blending a late first observation into a zero baseline would bias
// its effective perturbation low and freeze it prematurely.
type EMATracker struct {
	alpha  float64
	e      []float64
	a      []float64
	seeded *bitset.BitSet
	nseed  int // cached count of seeded scalars
	seen   int
}

// NewEMATracker constructs a tracker over dim scalars with smoothing factor
// alpha (the paper sets α=0.99, close to 1).
func NewEMATracker(dim int, alpha float64) *EMATracker {
	if dim <= 0 {
		panic(fmt.Sprintf("perturb: invalid dim %d", dim))
	}
	if alpha < 0 || alpha >= 1 {
		panic(fmt.Sprintf("perturb: EMA alpha %v out of [0,1)", alpha))
	}
	return &EMATracker{
		alpha:  alpha,
		e:      make([]float64, dim),
		a:      make([]float64, dim),
		seeded: bitset.New(dim),
	}
}

// Dim returns the tracked scalar count.
func (t *EMATracker) Dim() int { return len(t.e) }

// Seen returns how many updates have been observed.
func (t *EMATracker) Seen() int { return t.seen }

// observeOne folds scalar j's update v into its averages, seeding on the
// scalar's first genuine observation.
func (t *EMATracker) observeOne(j int, v float64) {
	if !t.seeded.Get(j) {
		// Seed the averages with the first observation rather than zero,
		// so early perturbation values are meaningful.
		t.e[j] = v
		t.a[j] = math.Abs(v)
		t.seeded.Set(j)
		t.nseed++
		return
	}
	a, b := t.alpha, 1-t.alpha
	t.e[j] = a*t.e[j] + b*v
	t.a[j] = a*t.a[j] + b*math.Abs(v)
}

// Observe folds one cumulative-update vector Δ into the moving averages.
func (t *EMATracker) Observe(delta []float64) {
	if len(delta) != len(t.e) {
		panic(fmt.Sprintf("perturb: update length %d, want %d", len(delta), len(t.e)))
	}
	if t.nseed == len(t.e) {
		// Fast path: everything seeded, no per-element seeding branch.
		a, b := t.alpha, 1-t.alpha
		for j, v := range delta {
			t.e[j] = a*t.e[j] + b*v
			t.a[j] = a*t.a[j] + b*math.Abs(v)
		}
	} else {
		for j, v := range delta {
			t.observeOne(j, v)
		}
	}
	t.seen++
}

// ObserveMasked folds Δ into the averages only at positions where skip is
// false. Frozen parameters produce no genuine updates, so their averages
// must not be polluted by zeros (the APF manager checks stability only for
// unfrozen parameters).
func (t *EMATracker) ObserveMasked(delta []float64, skip func(j int) bool) {
	if len(delta) != len(t.e) {
		panic(fmt.Sprintf("perturb: update length %d, want %d", len(delta), len(t.e)))
	}
	for j, v := range delta {
		if skip != nil && skip(j) {
			continue
		}
		t.observeOne(j, v)
	}
	t.seen++
}

// ObserveUnfrozen folds Δ = x − base into the averages at every clear bit
// of frozen — the bitmap form of ObserveMasked, iterated word-level so the
// APF stability check skips 64 frozen scalars at a time, and computing Δ
// only where it is folded, so no dim-length Δ vector exists.
func (t *EMATracker) ObserveUnfrozen(x, base []float64, frozen *bitset.BitSet) {
	if len(x) != len(t.e) || len(base) != len(t.e) {
		panic(fmt.Sprintf("perturb: update lengths %d/%d, want %d", len(x), len(base), len(t.e)))
	}
	if frozen == nil || frozen.Len() != len(t.e) {
		panic("perturb: frozen bitmap does not match tracker dimension")
	}
	frozen.IterateClear(func(j int) { t.observeOne(j, x[j]-base[j]) })
	t.seen++
}

// Perturbation returns |E_j|/A_j, defining 0/0 as perfectly stable.
func (t *EMATracker) Perturbation(j int) float64 {
	return ratio(t.e[j], t.a[j])
}

// RestoreScalarState overwrites scalar j's averages and seeded flag,
// keeping the seeded-count cache consistent: the per-scalar import of a
// reconciliation delta.
func (t *EMATracker) RestoreScalarState(j int, e, a float64, seeded bool) {
	t.e[j] = e
	t.a[j] = a
	if t.seeded.Get(j) != seeded {
		t.seeded.SetTo(j, seeded)
		if seeded {
			t.nseed++
		} else {
			t.nseed--
		}
	}
}

// RestoreSeen overwrites the tracker-global observation count (it is
// not derivable from any per-scalar state, so delta imports set it
// from the header).
func (t *EMATracker) RestoreSeen(n int) { t.seen = n }

// EMAState is a serializable snapshot of an EMATracker.
type EMAState struct {
	Alpha float64
	E     []float64
	A     []float64
	Seen  int
	// Seeded marks the scalars whose averages hold at least one genuine
	// observation, in bitset word layout; a restore refuses a bitmap of
	// the wrong length, nil included.
	Seeded []uint64
}

// Snapshot copies the tracker state for checkpointing.
func (t *EMATracker) Snapshot() EMAState {
	return EMAState{
		Alpha:  t.alpha,
		E:      append([]float64(nil), t.e...),
		A:      append([]float64(nil), t.a...),
		Seen:   t.seen,
		Seeded: append([]uint64(nil), t.seeded.Words()...),
	}
}

// RestoreEMATracker reconstructs a tracker from a snapshot.
func RestoreEMATracker(s EMAState) (*EMATracker, error) {
	if len(s.E) != len(s.A) || len(s.E) == 0 {
		return nil, fmt.Errorf("perturb: inconsistent snapshot (|E|=%d |A|=%d)", len(s.E), len(s.A))
	}
	if s.Alpha < 0 || s.Alpha >= 1 {
		return nil, fmt.Errorf("perturb: snapshot alpha %v out of [0,1)", s.Alpha)
	}
	t := NewEMATracker(len(s.E), s.Alpha)
	copy(t.e, s.E)
	copy(t.a, s.A)
	t.seen = s.Seen
	seeded, err := bitset.FromWords(len(s.E), s.Seeded)
	if err != nil {
		return nil, fmt.Errorf("perturb: restore seeded bitmap: %w", err)
	}
	t.seeded = seeded
	t.nseed = seeded.Count()
	return t, nil
}

// PerturbationAll fills dst (allocated when nil or mis-sized) with every
// scalar's effective perturbation.
func (t *EMATracker) PerturbationAll(dst []float64) []float64 {
	if len(dst) != len(t.e) {
		dst = make([]float64, len(t.e))
	}
	for j := range dst {
		dst[j] = ratio(t.e[j], t.a[j])
	}
	return dst
}

// ratio computes |num|/den with the 0/0 → 0 convention and clamping into
// [0, 1] against floating-point drift.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	p := math.Abs(num) / den
	if p > 1 {
		p = 1
	}
	return p
}
