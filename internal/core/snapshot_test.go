package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
)

// runRounds drives a manager through n single-client rounds with the
// given update stream, returning the final model vector.
func runRounds(m *Manager, x []float64, startRound, n int, rng *rand.Rand) []float64 {
	for r := startRound; r < startRound+n; r++ {
		for j := range x {
			if j%2 == 0 {
				x[j] += float64(1 - 2*(r%2))
			} else {
				x[j] += rng.NormFloat64()
			}
		}
		m.PostIterate(r, x)
		contrib, _, _ := m.PrepareUpload(r, x)
		m.ApplyDownload(r, x, contrib)
	}
	return x
}

func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	cfg := Config{
		Dim:              10,
		CheckEveryRounds: 1,
		Threshold:        0.3,
		EMAAlpha:         0.85,
		Seed:             4,
		Random:           RandomFreeze{Mode: RandomFixed, Prob: 0.3},
	}

	// Reference: one manager runs 30 rounds straight.
	ref := NewManager(cfg)
	xRef := make([]float64, 10)
	runRounds(ref, xRef, 0, 15, rand.New(rand.NewSource(1)))
	runRounds(ref, xRef, 15, 15, rand.New(rand.NewSource(2)))

	// Checkpointed: snapshot at round 15 (through gob, as a deployment
	// would), restore, continue.
	orig := NewManager(cfg)
	xOrig := make([]float64, 10)
	runRounds(orig, xOrig, 0, 15, rand.New(rand.NewSource(1)))

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var state State
	if err := gob.NewDecoder(&buf).Decode(&state); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, &state)
	if err != nil {
		t.Fatal(err)
	}
	xRest := append([]float64(nil), xOrig...)
	runRounds(restored, xRest, 15, 15, rand.New(rand.NewSource(2)))

	for j := range xRef {
		if xRef[j] != xRest[j] {
			t.Fatalf("restored run diverged at scalar %d: %v vs %v", j, xRest[j], xRef[j])
		}
	}
	wRef, wRest := ref.MaskWords(), restored.MaskWords()
	for i := range wRef {
		if wRef[i] != wRest[i] {
			t.Fatal("restored mask differs from uninterrupted run")
		}
	}
	if ref.Threshold() != restored.Threshold() || ref.Checks() != restored.Checks() {
		t.Error("threshold/check bookkeeping not restored")
	}
}

func TestRestoreValidation(t *testing.T) {
	cfg := Config{Dim: 4, CheckEveryRounds: 1}
	good := NewManager(cfg).Snapshot()

	tests := []struct {
		name   string
		mutate func(s *State) *State
		cfg    Config
	}{
		{"nil", func(s *State) *State { return nil }, cfg},
		{"dim mismatch", func(s *State) *State { return s }, Config{Dim: 5, CheckEveryRounds: 1}},
		{"short field", func(s *State) *State { s.Period = s.Period[:2]; return s }, cfg},
		{"tracker dim", func(s *State) *State {
			s.Tracker.E = s.Tracker.E[:2]
			s.Tracker.A = s.Tracker.A[:2]
			return s
		}, cfg},
		{"bad alpha", func(s *State) *State { s.Tracker.Alpha = 2; return s }, cfg},
		{"word-restricted", func(s *State) *State { return must(s.Select([]int{0})) }, cfg},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewManager(cfg).Snapshot()
			s = tt.mutate(s)
			if _, err := Restore(tt.cfg, s); err == nil {
				t.Error("Restore accepted an invalid snapshot")
			}
		})
	}

	// Config.Dim 0 is inferred from the snapshot.
	m, err := Restore(Config{CheckEveryRounds: 1}, good)
	if err != nil || m == nil {
		t.Fatalf("Restore with inferred dim failed: %v", err)
	}
}

// TestRestoreSnapshotRefusesOtherEMAAlpha: a snapshot taken under another
// EMA smoothing factor is refused with the manager unchanged, never
// adopted — the manager would otherwise smooth every later observation
// with an α its configuration does not name, and drift from the replicas
// built from the same Config.
func TestRestoreSnapshotRefusesOtherEMAAlpha(t *testing.T) {
	cfg := Config{Dim: 10, CheckEveryRounds: 1, Threshold: 0.3, EMAAlpha: 0.9, Seed: 4}
	src := NewManager(cfg)
	runRounds(src, make([]float64, 10), 0, 6, rand.New(rand.NewSource(1)))
	s := src.Snapshot()
	s.Tracker.Alpha = 0.5

	dst := NewManager(cfg)
	runRounds(dst, make([]float64, 10), 0, 3, rand.New(rand.NewSource(2)))
	before := dst.Snapshot()
	if err := dst.RestoreSnapshot(s); err == nil {
		t.Fatal("restored a snapshot with EMA alpha 0.5 into a manager configured with 0.9")
	}
	if after := dst.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused restore changed the manager (tracker alpha now %v)", after.Tracker.Alpha)
	}
}
