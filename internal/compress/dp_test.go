package compress

import (
	"math"
	"testing"

	"apf/internal/fl"
)

func TestDPNoisePerturbsUploadOnly(t *testing.T) {
	m := NewDPNoise(fl.NewPassthroughManager(4), 0.1, 7)
	x := []float64{1, 2, 3}
	m.PostIterate(0, x)
	contrib, w, up := m.PrepareUpload(0, x)
	if w != 1 || up != 12 {
		t.Fatalf("wrapper changed accounting: w=%v up=%d", w, up)
	}
	changed := false
	for j := range x {
		if contrib[j] != x[j] {
			changed = true
		}
		if math.Abs(contrib[j]-x[j]) > 1 {
			t.Errorf("noise too large at %d: %v vs %v", j, contrib[j], x[j])
		}
	}
	if !changed {
		t.Error("DP noise did not perturb the upload")
	}
	// Download path is untouched.
	down := m.ApplyDownload(0, x, []float64{9, 9, 9})
	if down != 12 || x[0] != 9 {
		t.Error("download path altered by DP wrapper")
	}
}

func TestDPNoiseZeroSigmaIsIdentity(t *testing.T) {
	m := NewDPNoise(fl.NewPassthroughManager(4), 0, 7)
	x := []float64{1, 2}
	contrib, _, _ := m.PrepareUpload(0, x)
	if contrib[0] != 1 || contrib[1] != 2 {
		t.Error("sigma=0 should be a no-op")
	}
}

func TestDPNoiseDistinctPerClient(t *testing.T) {
	a := NewDPNoise(fl.NewPassthroughManager(4), 0.5, 1)
	b := NewDPNoise(fl.NewPassthroughManager(4), 0.5, 2)
	x := []float64{0, 0, 0, 0}
	ca, _, _ := a.PrepareUpload(0, x)
	cb, _, _ := b.PrepareUpload(0, x)
	same := true
	for j := range ca {
		if ca[j] != cb[j] {
			same = false
		}
	}
	if same {
		t.Error("different client seeds must draw different noise")
	}
}

func TestDPNoiseValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sigma did not panic")
		}
	}()
	NewDPNoise(fl.NewPassthroughManager(4), -1, 1)
}

func TestDPNoiseDelegatesReporting(t *testing.T) {
	m := NewDPNoise(NewPartialSync(4, 1, 0.5, 0.5, 4), 0.1, 1)
	if mr, ok := fl.As[fl.MaskReporter](m); !ok || mr.MaskWords() == nil {
		t.Error("mask should be found through the wrapper")
	}
	if fr, ok := fl.As[fl.FrozenRatioReporter](m); !ok || fr.FrozenRatio() != 0 {
		t.Error("fresh PartialSync should report 0 frozen")
	}
	n := NewDPNoise(fl.NewPassthroughManager(4), 0.1, 1)
	if _, ok := fl.As[fl.MaskReporter](n); ok {
		t.Error("passthrough exposes no mask")
	}
}
