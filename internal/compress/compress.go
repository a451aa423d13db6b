// Package compress implements the synchronization schemes APF is compared
// against in the paper: the two §4.1 strawmen (partial synchronization and
// permanent freezing), the Gaia and CMFL sparsification baselines (§7.4),
// and a stackable fp16 quantization wrapper (§7.7). All implement the
// fl.SyncManager contract.
package compress

import (
	"fmt"
	"math"

	"apf/internal/bitset"
	"apf/internal/fl"
	"apf/internal/perturb"
	"apf/internal/quantize"
)

// PartialSync is strawman 1 (§4.1): scalars judged stable are excluded
// from synchronization forever but keep being updated locally. Under
// non-IID data the local copies diverge toward different local optima,
// which is exactly the failure mode Figs. 4-5 demonstrate.
type PartialSync struct {
	dim           int
	checkEvery    int
	threshold     float64
	bytesPerValue int64

	tracker     *perturb.EMATracker
	excluded    *bitset.BitSet
	lastCheck   []float64
	initialized bool
	initRound   int
}

var _ fl.SyncManager = (*PartialSync)(nil)
var _ fl.FrozenRatioReporter = (*PartialSync)(nil)

// NewPartialSync constructs the strawman with the given stability-check
// interval (rounds), effective-perturbation threshold, and wire bytes per
// scalar.
func NewPartialSync(dim, checkEveryRounds int, threshold, emaAlpha float64, bytesPerValue int) *PartialSync {
	if dim <= 0 || checkEveryRounds <= 0 {
		panic(fmt.Sprintf("compress: invalid PartialSync geometry dim=%d check=%d", dim, checkEveryRounds))
	}
	return &PartialSync{
		dim:           dim,
		checkEvery:    checkEveryRounds,
		threshold:     threshold,
		bytesPerValue: int64(bytesPerValue),
		tracker:       perturb.NewEMATracker(dim, emaAlpha),
		excluded:      bitset.New(dim),
		lastCheck:     make([]float64, dim),
		initRound:     -1,
	}
}

// PostIterate is a no-op: local updates proceed unrestricted (that is the
// point of this strawman).
func (m *PartialSync) PostIterate(int, []float64) {}

// PrepareUpload pushes only the still-synchronized scalars; the
// contribution is x itself.
func (m *PartialSync) PrepareUpload(_ int, x []float64) ([]float64, float64, int64) {
	synced := m.dim - m.excluded.Count()
	return x, 1, int64(synced) * m.bytesPerValue
}

// ApplyDownload pulls only the still-synchronized scalars, then re-checks
// stability on check boundaries. Stability is judged from post-download
// (synchronized) values, so all clients exclude the same scalars.
func (m *PartialSync) ApplyDownload(round int, x, global []float64) int64 {
	synced := 0
	for j := 0; j < m.dim; j++ {
		if !m.excluded.Get(j) {
			x[j] = global[j]
			synced++
		}
	}
	if !m.initialized {
		// Baseline from synchronized state, so every client excludes the
		// same scalars (see core.Manager for the same reasoning).
		copy(m.lastCheck, x)
		m.initialized = true
		m.initRound = round
	}
	// Skip the check on the baseline-seeding round, whose delta would be
	// degenerate.
	if round > m.initRound && (round+1)%m.checkEvery == 0 {
		delta := make([]float64, m.dim)
		for j := range delta {
			delta[j] = x[j] - m.lastCheck[j]
		}
		m.tracker.ObserveMasked(delta, m.excluded.Get)
		for j := 0; j < m.dim; j++ {
			if m.excluded.Get(j) {
				continue
			}
			if m.tracker.Perturbation(j) < m.threshold {
				m.excluded.Set(j)
			}
		}
		copy(m.lastCheck, x)
	}
	return int64(synced) * m.bytesPerValue
}

// FrozenRatio reports the excluded fraction (for plotting parity with APF).
func (m *PartialSync) FrozenRatio() float64 { return m.excluded.Ratio() }

// MaskWords exposes the exclusion bitmap for consistency tests.
func (m *PartialSync) MaskWords() []uint64 { return m.excluded.Words() }

// Gaia reimplements the Gaia baseline (Hsieh et al., NSDI'17) as described
// in the paper's §2.2/§7.4: each round a client pushes only updates whose
// relative magnitude against the current global value exceeds a
// significance threshold; insignificant updates accumulate locally and are
// retried later. Only the push phase is compressed — the pull phase always
// carries the full model — which is one of the structural reasons APF's
// cumulative traffic beats it (Fig. 14).
type Gaia struct {
	dim           int
	threshold     float64
	decayEvery    int
	bytesPerValue int64

	lastGlobal []float64
	residual   []float64
	// contrib is the upload scratch, rewritten by every PrepareUpload.
	contrib     []float64
	initialized bool
	lastPushed  int
}

var _ fl.SyncManager = (*Gaia)(nil)

// NewGaia constructs the baseline. threshold is the initial relative
// significance threshold (the paper uses Gaia's default 0.01); it halves
// every decayEvery rounds (<=0 disables decay), approximating Gaia's
// "decaying threshold as elaborated in their paper".
func NewGaia(dim int, threshold float64, decayEvery, bytesPerValue int) *Gaia {
	if dim <= 0 {
		panic(fmt.Sprintf("compress: invalid Gaia dim %d", dim))
	}
	return &Gaia{
		dim:           dim,
		threshold:     threshold,
		decayEvery:    decayEvery,
		bytesPerValue: int64(bytesPerValue),
		lastGlobal:    make([]float64, dim),
		residual:      make([]float64, dim),
		contrib:       make([]float64, dim),
	}
}

// PostIterate captures the round-0 reference model on first call.
func (m *Gaia) PostIterate(_ int, x []float64) {
	if !m.initialized {
		copy(m.lastGlobal, x)
		m.initialized = true
	}
}

// thresholdAt returns the decayed significance threshold for round.
func (m *Gaia) thresholdAt(round int) float64 {
	if m.decayEvery <= 0 {
		return m.threshold
	}
	return m.threshold * math.Pow(0.5, float64(round/m.decayEvery))
}

// PrepareUpload pushes significant components of the accumulated update;
// the rest stays in the residual. Sparse payloads carry a 4-byte index per
// transmitted value. The returned contribution is valid until the next
// PrepareUpload.
func (m *Gaia) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	thr := m.thresholdAt(round)
	contrib := m.contrib
	sent := 0
	const magnitudeFloor = 1e-3 // relative-change denominator floor near zero
	for j := 0; j < m.dim; j++ {
		u := x[j] - m.lastGlobal[j] + m.residual[j]
		base := math.Abs(m.lastGlobal[j])
		if base < magnitudeFloor {
			base = magnitudeFloor
		}
		if math.Abs(u) >= thr*base {
			contrib[j] = m.lastGlobal[j] + u
			m.residual[j] = 0
			sent++
		} else {
			contrib[j] = m.lastGlobal[j]
			m.residual[j] = u
		}
	}
	m.lastPushed = sent
	return contrib, 1, int64(sent) * (m.bytesPerValue + 4)
}

// ApplyDownload pulls the full model (Gaia does not compress the pull
// phase).
func (m *Gaia) ApplyDownload(_ int, x, global []float64) int64 {
	copy(x, global)
	copy(m.lastGlobal, global)
	return int64(m.dim) * m.bytesPerValue
}

// LastPushedCount reports how many scalars the previous round pushed.
func (m *Gaia) LastPushedCount() int { return m.lastPushed }

// CMFL reimplements the CMFL baseline (Wang et al., ICDCS'19) as described
// in the paper: a client pushes its full local update only when the
// update's sign pattern agrees with the previous global update on at least
// a relevance-threshold fraction of components; irrelevant updates are
// withheld entirely (aggregation weight 0). Like Gaia, only the push phase
// is compressed.
type CMFL struct {
	dim           int
	threshold     float64
	decayPerRound float64
	bytesPerValue int64

	lastGlobal  []float64
	globalDelta []float64
	haveDelta   bool
	initialized bool
}

var _ fl.SyncManager = (*CMFL)(nil)

// NewCMFL constructs the baseline with the paper's default relevance
// threshold 0.8, decayed multiplicatively by decayPerRound each round
// (use 1 for no decay).
func NewCMFL(dim int, threshold, decayPerRound float64, bytesPerValue int) *CMFL {
	if dim <= 0 {
		panic(fmt.Sprintf("compress: invalid CMFL dim %d", dim))
	}
	return &CMFL{
		dim:           dim,
		threshold:     threshold,
		decayPerRound: decayPerRound,
		bytesPerValue: int64(bytesPerValue),
		lastGlobal:    make([]float64, dim),
		globalDelta:   make([]float64, dim),
	}
}

// PostIterate captures the round-0 reference model on first call.
func (m *CMFL) PostIterate(_ int, x []float64) {
	if !m.initialized {
		copy(m.lastGlobal, x)
		m.initialized = true
	}
}

// PrepareUpload pushes the full update, x itself, when it is relevant
// enough, and nothing otherwise.
func (m *CMFL) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	send := true
	if m.haveDelta {
		agree := 0
		for j := 0; j < m.dim; j++ {
			u := x[j] - m.lastGlobal[j]
			if (u >= 0) == (m.globalDelta[j] >= 0) {
				agree++
			}
		}
		thr := m.threshold
		if m.decayPerRound > 0 && m.decayPerRound != 1 {
			thr *= math.Pow(m.decayPerRound, float64(round))
		}
		send = float64(agree)/float64(m.dim) >= thr
	}
	if !send {
		return x, 0, 0
	}
	return x, 1, int64(m.dim) * m.bytesPerValue
}

// ApplyDownload pulls the full model and updates the reference direction.
func (m *CMFL) ApplyDownload(_ int, x, global []float64) int64 {
	for j := 0; j < m.dim; j++ {
		m.globalDelta[j] = global[j] - m.lastGlobal[j]
	}
	m.haveDelta = true
	copy(m.lastGlobal, global)
	copy(x, global)
	return int64(m.dim) * m.bytesPerValue
}

// Quantized wraps another manager and transmits every value in IEEE
// binary16 instead of binary32, halving the value bytes in both phases and
// applying the corresponding precision loss (§7.7's Quantization_Manager
// stacked atop the APF_Manager). Byte accounting assumes the inner
// payloads are pure values (true for APF and the passthrough baseline).
type Quantized struct {
	inner fl.SyncManager
	// buf holds the rounded copy of the round's upload, then of its
	// global: the inner contribution may be the model itself, which this
	// wrapper must not write.
	buf []float64
}

var _ fl.SyncManager = (*Quantized)(nil)

// NewQuantized wraps inner with fp16 transmission.
func NewQuantized(inner fl.SyncManager) *Quantized { return &Quantized{inner: inner} }

// PostIterate delegates to the wrapped manager.
func (m *Quantized) PostIterate(round int, x []float64) { m.inner.PostIterate(round, x) }

// PrepareUpload quantizes a copy of the inner payload and halves its wire
// size. The copy is valid until the next PrepareUpload or ApplyDownload.
func (m *Quantized) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	contrib, w, up := m.inner.PrepareUpload(round, x)
	m.buf = quantize.RoundTripSlice(append(m.buf[:0], contrib...))
	return m.buf, w, up / 2
}

// ApplyDownload hands the wrapped manager a half-precision view of the
// global model and halves the reported pull bytes.
func (m *Quantized) ApplyDownload(round int, x, global []float64) int64 {
	m.buf = quantize.RoundTripSlice(append(m.buf[:0], global...))
	return m.inner.ApplyDownload(round, x, m.buf) / 2
}

// Unwrap returns the wrapped manager, whose optional capabilities fl.As
// finds through the wrapper.
func (m *Quantized) Unwrap() fl.SyncManager { return m.inner }
