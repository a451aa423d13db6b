package compress

import (
	"math"
	"testing"

	"apf/internal/fl"
	"apf/internal/quantize"
)

func TestPartialSyncExcludesStableForever(t *testing.T) {
	m := NewPartialSync(2, 1, 0.3, 0.8, 4)
	x := []float64{0, 0}
	// Scalar 0 oscillates, scalar 1 drifts.
	for round := 0; round < 40; round++ {
		if round%2 == 0 {
			x[0]++
		} else {
			x[0]--
		}
		x[1]++
		m.PostIterate(round, x)
		contrib, w, _ := m.PrepareUpload(round, x)
		if w != 1 {
			t.Fatal("partial sync must always contribute")
		}
		m.ApplyDownload(round, x, contrib)
	}
	if !m.excluded.Get(0) {
		t.Error("oscillating scalar should be excluded")
	}
	if m.excluded.Get(1) {
		t.Error("drifting scalar must stay synchronized")
	}
	if m.FrozenRatio() != 0.5 {
		t.Errorf("FrozenRatio = %v, want 0.5", m.FrozenRatio())
	}

	// Once excluded, the scalar is never re-included (no unfreezing in
	// this strawman) and downloads do not overwrite it.
	x[0] = 123
	global := []float64{777, 888}
	m.ApplyDownload(100, x, global)
	if x[0] != 123 {
		t.Error("excluded scalar overwritten by download")
	}
	if x[1] != 888 {
		t.Error("synchronized scalar not updated by download")
	}
}

func TestPartialSyncByteAccounting(t *testing.T) {
	m := NewPartialSync(4, 1, 0.5, 0.5, 4)
	x := make([]float64, 4)
	m.PostIterate(0, x)
	_, _, up := m.PrepareUpload(0, x)
	if up != 16 {
		t.Errorf("initial up bytes = %d, want 16", up)
	}
	m.excluded.Set(0)
	m.excluded.Set(1)
	_, _, up = m.PrepareUpload(1, x)
	if up != 8 {
		t.Errorf("up bytes with half excluded = %d, want 8", up)
	}
}

func TestGaiaSignificanceFiltering(t *testing.T) {
	m := NewGaia(3, 0.1, 0, 4)
	x := []float64{1, 1, 1}
	m.PostIterate(0, x)

	// Move scalar 0 a lot (significant: |0.5|/1 ≥ 0.1), scalar 1 a tiny
	// bit (insignificant), scalar 2 not at all.
	x[0] += 0.5
	x[1] += 0.001
	contrib, w, up := m.PrepareUpload(0, x)
	if w != 1 {
		t.Fatal("gaia always contributes")
	}
	if contrib[0] != 1.5 {
		t.Errorf("significant update not applied: %v", contrib[0])
	}
	if contrib[1] != 1 || contrib[2] != 1 {
		t.Errorf("insignificant updates leaked into contribution: %v", contrib)
	}
	if up != 8 { // one value: 4B value + 4B index
		t.Errorf("up bytes = %d, want 8", up)
	}
	if m.LastPushedCount() != 1 {
		t.Errorf("pushed count = %d, want 1", m.LastPushedCount())
	}

	// The withheld update accumulates: repeat small moves until their sum
	// crosses the threshold.
	// The contribution is Gaia's scratch, rewritten by the next upload:
	// keep the value to compare against.
	held := contrib[1]
	m.ApplyDownload(0, x, contrib)
	sent := false
	for round := 1; round <= 200 && !sent; round++ {
		x[1] += 0.001
		c, _, _ := m.PrepareUpload(round, x)
		sent = c[1] != held
		m.ApplyDownload(round, c, c)
		copy(x, c)
	}
	if !sent {
		t.Error("accumulated residual never crossed the significance threshold")
	}
}

func TestGaiaPullsFullModel(t *testing.T) {
	m := NewGaia(5, 0.01, 0, 4)
	x := make([]float64, 5)
	m.PostIterate(0, x)
	down := m.ApplyDownload(0, x, []float64{1, 2, 3, 4, 5})
	if down != 20 {
		t.Errorf("down bytes = %d, want full model (20)", down)
	}
	if x[4] != 5 {
		t.Error("download not applied")
	}
}

func TestGaiaThresholdDecay(t *testing.T) {
	m := NewGaia(1, 0.4, 10, 4)
	if m.thresholdAt(0) != 0.4 || m.thresholdAt(9) != 0.4 {
		t.Error("threshold decayed too early")
	}
	if m.thresholdAt(10) != 0.2 || m.thresholdAt(25) != 0.1 {
		t.Errorf("threshold decay wrong: %v %v", m.thresholdAt(10), m.thresholdAt(25))
	}
}

func TestCMFLRelevanceGate(t *testing.T) {
	m := NewCMFL(4, 0.75, 1, 4)
	x := []float64{0, 0, 0, 0}
	m.PostIterate(0, x)

	// Round 0: no reference direction yet → always send.
	x = []float64{1, 1, 1, 1}
	_, w, up := m.PrepareUpload(0, x)
	if w != 1 || up != 16 {
		t.Fatalf("first round must send full update: w=%v up=%d", w, up)
	}
	// Global moved in +1 direction everywhere.
	m.ApplyDownload(0, x, []float64{1, 1, 1, 1})

	// An aligned update (all +) is relevant.
	x = []float64{2, 2, 2, 1.5}
	_, w, up = m.PrepareUpload(1, x)
	if w != 1 || up != 16 {
		t.Errorf("aligned update withheld: w=%v up=%d", w, up)
	}

	// An opposing update (3 of 4 components negative → 25%% agreement)
	// is withheld entirely.
	x = []float64{0.5, 0.5, 0.5, 1.5}
	_, w, up = m.PrepareUpload(1, x)
	if w != 0 || up != 0 {
		t.Errorf("irrelevant update not withheld: w=%v up=%d", w, up)
	}
}

func TestCMFLPullsFullModel(t *testing.T) {
	m := NewCMFL(3, 0.8, 1, 4)
	x := make([]float64, 3)
	m.PostIterate(0, x)
	down := m.ApplyDownload(0, x, []float64{1, 2, 3})
	if down != 12 {
		t.Errorf("down bytes = %d, want 12", down)
	}
}

func TestQuantizedWrapsPassthrough(t *testing.T) {
	inner := fl.NewPassthroughManager(4)
	m := NewQuantized(inner)
	x := []float64{0.1, -3.25, 70000}
	m.PostIterate(0, x)
	contrib, w, up := m.PrepareUpload(0, x)
	if w != 1 {
		t.Fatal("weight changed by quantization")
	}
	if up != 6 { // 3 scalars × 2 bytes
		t.Errorf("up bytes = %d, want 6", up)
	}
	if contrib[1] != -3.25 {
		t.Error("exactly representable value changed")
	}
	if contrib[0] == 0.1 {
		t.Error("0.1 should have lost precision in fp16")
	}
	if math.Abs(contrib[0]-0.1) > 1e-4 {
		t.Errorf("fp16 error too large: %v", contrib[0])
	}
	if !math.IsInf(contrib[2], 1) {
		t.Errorf("out-of-range value should saturate: %v", contrib[2])
	}

	// Downloads are quantized before the inner manager sees them.
	down := m.ApplyDownload(0, x, []float64{0.1, 1, 2})
	if down != 6 {
		t.Errorf("down bytes = %d, want 6", down)
	}
	if x[0] != quantize.RoundTrip(0.1) {
		t.Errorf("download not quantized: %v", x[0])
	}
}

func TestQuantizedDelegatesReporting(t *testing.T) {
	q := NewQuantized(fl.NewPassthroughManager(4))
	if _, ok := fl.As[fl.FrozenRatioReporter](q); ok {
		t.Error("passthrough has no frozen params")
	}
	if _, ok := fl.As[fl.MaskReporter](q); ok {
		t.Error("passthrough exposes no mask")
	}

	p := NewQuantized(NewPartialSync(4, 1, 0.5, 0.5, 4))
	if mr, ok := fl.As[fl.MaskReporter](p); !ok || mr.MaskWords() == nil {
		t.Error("mask should be found on PartialSync through the wrapper")
	}
}

func TestConstructorValidation(t *testing.T) {
	tests := []struct {
		name string
		f    func()
	}{
		{"partial dim", func() { NewPartialSync(0, 1, 0.1, 0.9, 4) }},
		{"partial interval", func() { NewPartialSync(3, 0, 0.1, 0.9, 4) }},
		{"gaia dim", func() { NewGaia(0, 0.1, 0, 4) }},
		{"cmfl dim", func() { NewCMFL(0, 0.8, 1, 4) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tt.f()
		})
	}
}
