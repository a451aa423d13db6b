package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// driveRounds advances a manager through rounds [from, to) the way the
// transport does — PostIterate, a deterministic pseudo-training step,
// PrepareUpload, ApplyDownload of a deterministic "aggregate" — and
// returns the canonical post-ApplyDownload model. The aggregate is a
// pure function of (round, j), so any two managers driven over the
// same rounds are bit-exact replicas.
func driveRounds(m *Manager, x []float64, from, to int) []float64 {
	for round := from; round < to; round++ {
		m.PostIterate(round, x)
		for j := range x {
			x[j] += math.Sin(float64(round*31+j)) * 0.1
		}
		m.PostIterate(round, x)
		m.PrepareUpload(round, x)
		global := make([]float64, len(x))
		for j := range global {
			// An oscillating aggregate: per-check deltas alternate sign,
			// effective perturbation collapses, and scalars freeze — with
			// the oscillation amplitude varying by word so different words
			// freeze and thaw on different schedules. Whole words go
			// quiet, which is what gives generations something to share.
			osc := 0.001 * (1 + math.Sin(float64(j/64)))
			if round%2 == 1 {
				osc = -osc
			}
			global[j] = math.Cos(float64(j)) + osc + math.Pow(0.5, float64(round))*0.01
		}
		m.ApplyDownload(round, x, global)
	}
	return x
}

func reconTestConfig(dim int) Config {
	return Config{
		Dim:              dim,
		CheckEveryRounds: 5,
		Threshold:        0.9, // freeze aggressively so masks get dense
		EMAAlpha:         0.9,
		Seed:             42,
		Random:           RandomFreeze{Mode: RandomFixed, Prob: 0.3},
	}
}

// TestWordGenInvariant pins the replica-identity invariant behind the
// sketch catch-up: for two replicas of the same deterministic
// trajectory at different rounds, every word whose generations agree
// holds bit-identical state on both — so reconciling generations finds
// every difference.
func TestWordGenInvariant(t *testing.T) {
	const dim, rounds = 517, 60 // trailing partial word on purpose
	cfg := reconTestConfig(dim)
	ahead := NewManager(cfg)
	xa := make([]float64, dim)
	driveRounds(ahead, xa, 0, rounds)
	for _, stop := range []int{52, 55, 58} {
		behind := NewManager(cfg)
		xb := make([]float64, dim)
		driveRounds(behind, xb, 0, stop)
		ga, gb := ahead.WordGens(), behind.WordGens()
		same := 0
		for w := range ga {
			if ga[w] != gb[w] {
				continue
			}
			same++
			ba := ahead.ExportWordBlock(w, xa)
			bb := behind.ExportWordBlock(w, xb)
			if !reflect.DeepEqual(ba, bb) {
				t.Fatalf("stop %d: word %d has equal gen %d but different state", stop, w, ga[w])
			}
		}
		if same == 0 {
			t.Fatalf("stop %d: no shared generations — the invariant was never exercised", stop)
		}
		t.Logf("stop %d: %d/%d words share generations", stop, same, len(ga))
	}
}

// TestWordBlockDeltaRestoresReplica pins the delta import: applying
// the ahead replica's differing word blocks plus its sync header to a
// behind replica reproduces the ahead state bit-exactly, including all
// future behaviour.
func TestWordBlockDeltaRestoresReplica(t *testing.T) {
	const dim, stop, rounds = 517, 23, 60
	cfg := reconTestConfig(dim)
	ahead := NewManager(cfg)
	xa := make([]float64, dim)
	driveRounds(ahead, xa, 0, rounds)

	behind := NewManager(cfg)
	xb := make([]float64, dim)
	driveRounds(behind, xb, 0, stop)

	ga, gb := ahead.WordGens(), behind.WordGens()
	moved := 0
	for w := range ga {
		if ga[w] != gb[w] {
			if err := behind.ApplyWordBlock(ahead.ExportWordBlock(w, xa), xb); err != nil {
				t.Fatalf("apply word block %d: %v", w, err)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("trajectories at rounds %d vs %d share every word generation", rounds, stop)
	}
	if err := behind.ApplySyncHeader(ahead.SyncHeader()); err != nil {
		t.Fatalf("apply sync header: %v", err)
	}

	sa, sb := ahead.Snapshot(), behind.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("delta import did not reproduce the ahead state")
	}
	for j := range xa {
		if math.Float64bits(xa[j]) != math.Float64bits(xb[j]) {
			t.Fatalf("model scalar %d differs after delta import", j)
		}
	}
	// The repaired replica must stay bit-exact through future rounds.
	driveRounds(ahead, xa, rounds, rounds+20)
	driveRounds(behind, xb, rounds, rounds+20)
	if !reflect.DeepEqual(ahead.Snapshot(), behind.Snapshot()) {
		t.Fatalf("repaired replica diverged in later rounds")
	}
}

// TestRestoreSnapshotInPlace pins the snapshot catch-up entry point:
// an in-place restore reproduces the source manager bit-exactly and
// snapshots without the word generations are refused.
func TestRestoreSnapshotInPlace(t *testing.T) {
	const dim, rounds = 320, 37
	cfg := reconTestConfig(dim)
	src := NewManager(cfg)
	x := make([]float64, dim)
	driveRounds(src, x, 0, rounds)

	dst := NewManager(cfg)
	if err := dst.RestoreSnapshot(src.Snapshot()); err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	if !reflect.DeepEqual(src.Snapshot(), dst.Snapshot()) {
		t.Fatalf("in-place restore differs from source")
	}

	noGens := src.Snapshot()
	noGens.WordGen = nil
	if err := dst.RestoreSnapshot(noGens); err == nil {
		t.Fatalf("snapshot without word generations restored without error")
	}

	bad := src.Snapshot()
	bad.Dim = dim + 1
	if err := dst.RestoreSnapshot(bad); err == nil {
		t.Fatalf("mismatched snapshot restored without error")
	}
}

// TestWordGenRandomizedStops sweeps random stop points so no touch
// site escapes: whatever round the behind replica pauses at, the
// gen-diff words plus header must fully repair it.
func TestWordGenRandomizedStops(t *testing.T) {
	const dim, rounds = 259, 80
	cfg := reconTestConfig(dim)
	ahead := NewManager(cfg)
	xa := make([]float64, dim)
	driveRounds(ahead, xa, 0, rounds)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		stop := 1 + rng.Intn(rounds-1)
		behind := NewManager(cfg)
		xb := make([]float64, dim)
		driveRounds(behind, xb, 0, stop)
		ga, gb := ahead.WordGens(), behind.WordGens()
		for w := range ga {
			if ga[w] != gb[w] {
				if err := behind.ApplyWordBlock(ahead.ExportWordBlock(w, xa), xb); err != nil {
					t.Fatalf("stop %d: apply word block %d: %v", stop, w, err)
				}
			}
		}
		if err := behind.ApplySyncHeader(ahead.SyncHeader()); err != nil {
			t.Fatalf("stop %d: apply sync header: %v", stop, err)
		}
		if !reflect.DeepEqual(ahead.Snapshot(), behind.Snapshot()) {
			t.Fatalf("stop %d: delta import did not reproduce the ahead state", stop)
		}
		for j := range xa {
			if math.Float64bits(xa[j]) != math.Float64bits(xb[j]) {
				t.Fatalf("stop %d: model scalar %d differs", stop, j)
			}
		}
	}
}
