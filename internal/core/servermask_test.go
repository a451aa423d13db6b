package core

import (
	"testing"
)

// driveMaskPair runs one round of the MaskServer/MaskClient protocol for a
// single client whose "local training" is the given update function.
func driveMaskPair(c *MaskClient, round int, x []float64, update func(j, round int) float64) {
	for j := range x {
		x[j] += update(j, round)
	}
	c.PostIterate(round, x)
	contrib, _, _ := c.PrepareUpload(round, x)
	c.ApplyDownload(round, x, contrib)
}

func TestMaskClientFreezesLikeManager(t *testing.T) {
	cfg := Config{Dim: 4, CheckEveryRounds: 1, Threshold: 0.3, EMAAlpha: 0.8, Seed: 3}
	srv := NewMaskServer(cfg)
	c := NewMaskClient(srv, 4)
	x := make([]float64, 4)

	// Reference: a plain client-side manager driven identically.
	ref := NewManager(cfg)
	xr := make([]float64, 4)

	for round := 0; round < 30; round++ {
		driveMaskPair(c, round, x, mixedUpdate)

		for j := range xr {
			xr[j] += mixedUpdate(j, round)
		}
		ref.PostIterate(round, xr)
		contrib, _, _ := ref.PrepareUpload(round, xr)
		ref.ApplyDownload(round, xr, contrib)

		// Models must track each other exactly.
		for j := range x {
			if x[j] != xr[j] {
				t.Fatalf("round %d: model diverged at %d: %v vs %v", round, j, x[j], xr[j])
			}
		}
	}
	// Final masks identical.
	cw, rw := c.MaskWords(), ref.MaskWords()
	for i := range cw {
		if cw[i] != rw[i] {
			t.Fatal("mask-client mask differs from manager mask")
		}
	}
	if c.FrozenRatio() != ref.FrozenRatio() {
		t.Errorf("frozen ratios differ: %v vs %v", c.FrozenRatio(), ref.FrozenRatio())
	}
}

func TestMaskServerObserveIdempotent(t *testing.T) {
	srv := NewMaskServer(Config{Dim: 3, CheckEveryRounds: 1, Threshold: 0.5, EMAAlpha: 0.8})
	a := NewMaskClient(srv, 4)
	b := NewMaskClient(srv, 4)
	xa := []float64{1, 2, 3}
	xb := []float64{1, 2, 3}
	// Both clients process the same round; the second observe must reuse
	// the first's result rather than advancing the server state twice.
	a.ApplyDownload(0, xa, []float64{1, 2, 3})
	b.ApplyDownload(0, xb, []float64{1, 2, 3})
	aw, bw := a.MaskWords(), b.MaskWords()
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatal("same-round clients received different masks")
		}
	}
}

func TestMaskServerRejectsRoundRegression(t *testing.T) {
	srv := NewMaskServer(Config{Dim: 2, CheckEveryRounds: 1})
	c := NewMaskClient(srv, 4)
	x := []float64{0, 0}
	for round := 0; round <= 3; round++ {
		c.ApplyDownload(round, x, []float64{1, 1})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("round regression did not panic")
		}
	}()
	c.ApplyDownload(1, x, []float64{1, 1})
}

// TestMaskServerRejectsRoundGap pins that the server's mask is a function
// of the whole trajectory: a skipped round panics instead of shipping a
// mask no client-side manager would hold.
func TestMaskServerRejectsRoundGap(t *testing.T) {
	srv := NewMaskServer(Config{Dim: 2, CheckEveryRounds: 1})
	c := NewMaskClient(srv, 4)
	x := []float64{0, 0}
	c.ApplyDownload(0, x, []float64{1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("round gap did not panic")
		}
	}()
	c.ApplyDownload(2, x, []float64{1, 1})
}

func TestMaskClientValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil server did not panic")
		}
	}()
	NewMaskClient(nil, 4)
}
