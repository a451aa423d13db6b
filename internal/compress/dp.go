package compress

import (
	"fmt"
	"math/rand"

	"apf/internal/fl"
	"apf/internal/stats"
)

// DPNoise wraps a SyncManager with Gaussian differential-privacy noise on
// the pushed contribution, implementing the paper's §9 discussion: each
// client perturbs its upload with zero-mean Gaussian noise before the
// server sees it. Because the injected noise oscillates around zero it
// *lowers* measured effective perturbation, so §9 recommends a tighter
// stability threshold when DP is enabled — the DP experiment and tests
// verify that APF remains functional under this wrapper.
//
// Note the mask-consistency caveat: APF computes freezing masks from
// synchronized state, which under DP includes the aggregated noise — still
// identical on every client, so masks stay consistent.
type DPNoise struct {
	inner fl.SyncManager
	sigma float64
	rng   *rand.Rand
	// buf holds the noised copy of the upload: the inner contribution may
	// be the model itself, which this wrapper must not write.
	buf []float64
}

var _ fl.SyncManager = (*DPNoise)(nil)

// NewDPNoise wraps inner with per-upload Gaussian noise of standard
// deviation sigma. Each client must use a distinct seed (noise is local
// and private), unlike the APF manager seed which must be shared.
func NewDPNoise(inner fl.SyncManager, sigma float64, clientSeed int64) *DPNoise {
	if sigma < 0 {
		panic(fmt.Sprintf("compress: negative DP noise scale %v", sigma))
	}
	return &DPNoise{inner: inner, sigma: sigma, rng: stats.SplitRNG(clientSeed, 424242)}
}

// PostIterate delegates to the wrapped manager.
func (m *DPNoise) PostIterate(round int, x []float64) { m.inner.PostIterate(round, x) }

// PrepareUpload adds Gaussian noise to a copy of the inner contribution,
// valid until the next PrepareUpload.
func (m *DPNoise) PrepareUpload(round int, x []float64) ([]float64, float64, int64) {
	contrib, w, up := m.inner.PrepareUpload(round, x)
	if m.sigma == 0 {
		return contrib, w, up
	}
	m.buf = append(m.buf[:0], contrib...)
	for j := range m.buf {
		m.buf[j] += m.sigma * m.rng.NormFloat64()
	}
	return m.buf, w, up
}

// ApplyDownload delegates to the wrapped manager.
func (m *DPNoise) ApplyDownload(round int, x, global []float64) int64 {
	return m.inner.ApplyDownload(round, x, global)
}

// Unwrap returns the wrapped manager, whose optional capabilities fl.As
// finds through the wrapper.
func (m *DPNoise) Unwrap() fl.SyncManager { return m.inner }
