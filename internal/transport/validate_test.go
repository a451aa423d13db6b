package transport

import (
	"errors"
	"math"
	"slices"
	"testing"

	"apf/internal/checkpoint"
)

// accept drives one update through Check and, when it passes, Commit —
// the same two-step protocol the server's admit path uses.
func accept(t *testing.T, v *Validator, id, round int, payload []float64, weight float64) error {
	t.Helper()
	norm, err := v.Check(id, round, payload, weight)
	if err != nil {
		return err
	}
	v.Commit(norm, payload)
	return nil
}

// TestValidatorTypedRejections drives each rejection class through Check
// and asserts the typed error surfaces; what is not a statistic — an
// empty payload, a non-finite or negative weight, a non-finite scalar —
// passes Check (fl.Aggregator.Add judges it) without reaching either
// gate.
func TestValidatorTypedRejections(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 4, Dim: 3, StrikeLimit: 100, CosineFloor: 0.5})
	good := []float64{1, 2, 3}

	cases := []struct {
		name    string
		id      int
		payload []float64
		want    error
	}{
		{"oversized payload", 0, []float64{1, 2, 3, 4}, ErrDimMismatch},
		{"id out of range", 9, good, ErrDimMismatch},
	}
	for _, tc := range cases {
		_, err := v.Check(tc.id, 0, tc.payload, 1)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	for i := 0; i < cosineMinHistory; i++ {
		if err := accept(t, v, 0, 0, good, 1); err != nil {
			t.Fatalf("good update rejected: %v", err)
		}
	}
	// A compact (mask-elided) payload is shorter than Dim and legal, down
	// to a fully frozen round's empty one.
	for _, compact := range [][]float64{{7}, nil} {
		if err := accept(t, v, 1, 0, compact, 1); err != nil {
			t.Fatalf("compact payload %v rejected: %v", compact, err)
		}
	}
	for _, tc := range []struct {
		name    string
		payload []float64
		weight  float64
	}{
		{"nan weight", good, math.NaN()},
		{"negative weight", good, -1},
		{"nan scalar", []float64{1, math.NaN(), 3}, 1},
		{"inf scalar", []float64{math.Inf(-1), 2, 3}, 1},
	} {
		norm, err := v.Check(2, 0, tc.payload, tc.weight)
		if err != nil {
			t.Fatalf("%s: Check = %v, want it left to Add", tc.name, err)
		}
		if _, ok := v.LastCosine(); ok && (math.IsNaN(norm) || math.IsInf(norm, 0)) {
			t.Fatalf("%s: a non-finite norm reached the cosine gate", tc.name)
		}
	}
	if v.Strikes(2) != 0 {
		t.Fatalf("Check struck client 2 %d times for what Add judges", v.Strikes(2))
	}
	// Finite squares past the float range, at a weight so small that every
	// product stays inside Add's bound, are refused and struck, before any
	// gate could be skipped.
	wide := []float64{1.4e154, 2, 3}
	if _, err := v.Check(2, 0, wide, 6e-142); !errors.Is(err, ErrNormOutlier) || v.Strikes(2) != 1 {
		t.Fatalf("Check(%v) = %v with %d strikes; want ErrNormOutlier and one", wide, err, v.Strikes(2))
	}
	// An empty payload has no statistic: committing it leaves the gate
	// state as it was.
	filled, ref := v.filled, slices.Clone(v.ref)
	v.Commit(0, nil)
	if v.filled != filled || !slices.Equal(v.ref, ref) {
		t.Fatal("an empty payload entered the gate state")
	}
}

// normPoison is a norm outlier against the √2-scale history armNormGate
// records: a strike a server can deliver, unlike a length no reader
// passes.
var normPoison = []float64{100, 100}

// armNormGate records normMinHistory in-scale norms from client id, so
// the median gate of a validator with MaxNormMult set is live.
func armNormGate(t *testing.T, v *Validator, id int) {
	t.Helper()
	for i := 0; i < normMinHistory; i++ {
		if err := accept(t, v, id, i, []float64{1, 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestValidatorNormGate arms the median gate and checks a 100x-norm
// update is rejected while same-scale updates keep flowing; the gate
// stays silent until normMinHistory norms are recorded.
func TestValidatorNormGate(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 3, Dim: 4, MaxNormMult: 10, StrikeLimit: 100})
	base := []float64{1, 1, 1, 1}
	huge := []float64{100, 100, 100, 100}

	// Before normMinHistory accepted norms, even a wild update passes (there
	// is no reference scale yet).
	if err := accept(t, v, 0, 0, base, 1); err != nil {
		t.Fatal(err)
	}
	if err := accept(t, v, 1, 0, huge, 1); err != nil {
		t.Fatalf("gate fired before normMinHistory: %v", err)
	}
	if err := accept(t, v, 2, 0, base, 1); err != nil {
		t.Fatal(err)
	}

	// Armed now (3 norms recorded; median 2 — two base norms and one
	// huge). 100x the base norm exceeds 10x the median.
	if err := accept(t, v, 0, 1, huge, 1); !errors.Is(err, ErrNormOutlier) {
		t.Fatalf("outlier err = %v, want ErrNormOutlier", err)
	}
	if err := accept(t, v, 1, 1, base, 1); err != nil {
		t.Fatalf("in-scale update rejected after outlier: %v", err)
	}
	if v.Strikes(0) != 1 {
		t.Fatalf("strikes(0) = %d, want 1", v.Strikes(0))
	}
}

// TestCheckAloneDoesNotRecordNorms separates validation from recording:
// an update that passes Check but is never Commit-ted (the aggregator
// refused it, say for a cross-client length mismatch) must not feed the
// median gate — otherwise rejected updates could skew the reference
// scale.
func TestCheckAloneDoesNotRecordNorms(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 2, Dim: 2, MaxNormMult: 2, StrikeLimit: 100})
	base := []float64{1, 1}
	huge := []float64{100, 100}

	// Checks without Commit: the history stays empty, so the gate never
	// arms and even a wild norm keeps passing.
	for i := 0; i < 5; i++ {
		if _, err := v.Check(0, i, base, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Check(1, 5, huge, 1); err != nil {
		t.Fatalf("gate armed from un-committed norms: %v", err)
	}

	// normMinHistory committed norms arm it at the base scale.
	for i := 0; i < normMinHistory; i++ {
		if err := accept(t, v, 0, 6+i, base, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Check(1, 6+normMinHistory, huge, 1); !errors.Is(err, ErrNormOutlier) {
		t.Fatalf("outlier err = %v, want ErrNormOutlier", err)
	}
}

// TestValidatorQuarantine checks the strike limit trips into quarantine
// and stays there.
func TestValidatorQuarantine(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 2, MaxNormMult: 4, StrikeLimit: 3})
	armNormGate(t, v, 1)
	for i := 0; i < 3; i++ {
		if v.Quarantined(0) {
			t.Fatalf("quarantined after %d strikes", i)
		}
		if _, err := v.Check(0, i, normPoison, 1); !errors.Is(err, ErrNormOutlier) {
			t.Fatalf("strike %d: %v", i, err)
		}
	}
	if !v.Quarantined(0) || v.QuarantinedCount() != 1 {
		t.Fatalf("not quarantined at the strike limit (strikes=%d)", v.Strikes(0))
	}
	// Even a clean update from a quarantined client is refused, without
	// charging further strikes.
	if _, err := v.Check(0, 9, []float64{1, 2}, 1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-quarantine err = %v, want ErrQuarantined", err)
	}
	if v.Strikes(0) != 3 {
		t.Fatalf("quarantined rejections still strike: %d", v.Strikes(0))
	}
	// The other client is unaffected.
	if err := accept(t, v, 1, 9, []float64{1, 2}, 1); err != nil {
		t.Fatalf("clean client rejected: %v", err)
	}
}

// TestValidatorRollingWindow fills the norm window past capacity and
// checks the median tracks the recent scale, not the whole run.
func TestValidatorRollingWindow(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 1, Dim: 1, MaxNormMult: 4, StrikeLimit: 100})
	// Old scale ~1, then the model converges and updates shrink to ~0.1.
	for i := 0; i < normWindow; i++ {
		if err := accept(t, v, 0, i, []float64{1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := normWindow; i < 2*normWindow; i++ {
		if err := accept(t, v, 0, i, []float64{0.1}, 1); err != nil {
			t.Fatalf("shrinking update %d rejected: %v", i, err)
		}
	}
	// Window now holds only the small norms; an old-scale update is 10x
	// the median and must trip the 4x gate.
	if err := accept(t, v, 0, 2*normWindow, []float64{1}, 1); !errors.Is(err, ErrNormOutlier) {
		t.Fatalf("stale-scale update err = %v, want ErrNormOutlier", err)
	}
}

// TestValidatorStateRoundTrip snapshots a validator mid-run (one client
// quarantined, gate armed), round-trips it through the server snapshot
// codec, restores it into a fresh validator, and checks both defenses
// survive: the quarantine holds and the norm gate fires immediately,
// without waiting for normMinHistory fresh norms.
func TestValidatorStateRoundTrip(t *testing.T) {
	cfg := ValidatorConfig{Clients: 3, MaxNormMult: 4, StrikeLimit: 2}
	v := NewValidator(cfg)
	// Arm the gate at scale ~1, overflowing the window so the chronological
	// export of a wrapped ring is exercised.
	for i := 0; i < normWindow+2; i++ {
		if err := accept(t, v, i%2, i, []float64{1, 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := v.Check(2, normWindow+2+i, normPoison, 1); !errors.Is(err, ErrNormOutlier) {
			t.Fatalf("strike %d: %v", i, err)
		}
	}
	if !v.Quarantined(2) {
		t.Fatal("client 2 not quarantined")
	}

	st := &serverState{
		NumClients: 3,
		Rounds:     8,
		Init:       []float64{0, 0},
		Keys:       []string{"a", "b", "c"},
		Names:      []string{"a", "b", "c"},
		Validator:  v.snapshotState(),
	}
	decoded, err := decodeServerState(encodeServerState(new(checkpoint.Writer), st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := verifyRecovered(decoded, ServerConfig{NumClients: 3, Rounds: 8, Init: []float64{0, 0}}); err != nil {
		t.Fatalf("verifyRecovered: %v", err)
	}

	v2 := NewValidator(cfg)
	if err := v2.restoreState(decoded.Validator); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !v2.Quarantined(2) || v2.Strikes(2) != 2 {
		t.Fatalf("quarantine lost across restart (strikes=%d)", v2.Strikes(2))
	}
	// The gate is armed from the restored history: a 100x update is
	// rejected on the very first post-restart check.
	if _, err := v2.Check(0, normWindow+2, []float64{100, 100}, 1); !errors.Is(err, ErrNormOutlier) {
		t.Fatalf("post-restart outlier err = %v, want ErrNormOutlier", err)
	}
	if err := accept(t, v2, 1, normWindow+2, []float64{1, 1}, 1); err != nil {
		t.Fatalf("post-restart in-scale update rejected: %v", err)
	}

	// A validator state sized for a different cluster must be refused.
	if err := NewValidator(ValidatorConfig{Clients: 2, Dim: 2}).restoreState(decoded.Validator); err == nil {
		t.Fatal("restore accepted a state for a different cluster size")
	}
}

// TestValidatorQuarantineRound pins when the quarantine round is
// recorded: -1 until the strike limit trips, then the round of the final
// strike, immutable afterwards — and the sentinel returns after a state
// restore, which carries the flag but not the round.
func TestValidatorQuarantineRound(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 2, MaxNormMult: 4, StrikeLimit: 2})
	armNormGate(t, v, 1)
	if v.QuarantineRound(0) != -1 || v.QuarantineRound(1) != -1 {
		t.Fatal("fresh validator should report -1 quarantine rounds")
	}
	if _, err := v.Check(0, 3, normPoison, 1); !errors.Is(err, ErrNormOutlier) {
		t.Fatalf("strike 1: %v", err)
	}
	if v.QuarantineRound(0) != -1 {
		t.Fatalf("quarantine round set before the limit: %d", v.QuarantineRound(0))
	}
	if _, err := v.Check(0, 5, normPoison, 1); !errors.Is(err, ErrNormOutlier) {
		t.Fatalf("strike 2: %v", err)
	}
	if v.QuarantineRound(0) != 5 {
		t.Fatalf("quarantine round = %d, want 5", v.QuarantineRound(0))
	}
	// Further rejections must not move the recorded round.
	if _, err := v.Check(0, 7, normPoison, 1); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-quarantine err = %v", err)
	}
	if v.QuarantineRound(0) != 5 {
		t.Fatalf("quarantine round drifted to %d", v.QuarantineRound(0))
	}
	if v.QuarantineRound(1) != -1 {
		t.Fatal("unquarantined client grew a quarantine round")
	}

	// Snapshots persist the round alongside the flag.
	v2 := NewValidator(ValidatorConfig{Clients: 2, Dim: 2, StrikeLimit: 2})
	if err := v2.restoreState(v.snapshotState()); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !v2.Quarantined(0) {
		t.Fatal("quarantine flag lost across restore")
	}
	if v2.QuarantineRound(0) != 5 {
		t.Fatalf("restored quarantine round = %d, want 5", v2.QuarantineRound(0))
	}
	if v2.QuarantineRound(1) != -1 {
		t.Fatal("unquarantined client grew a quarantine round across restore")
	}

	// A capture without the quarantine rounds is refused, not restored
	// with sentinels.
	short := v.snapshotState()
	short.QuarRound = nil
	v3 := NewValidator(ValidatorConfig{Clients: 2, Dim: 2, StrikeLimit: 2})
	if err := v3.restoreState(short); err == nil {
		t.Fatal("validator state without quarantine rounds restored without error")
	}
}

// TestCosineGate arms the direction gate with a stable honest direction
// and checks that an inverted update is rejected with
// ErrDirectionOutlier while an aligned one passes.
func TestCosineGate(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 3, Dim: 4, CosineFloor: 0.2, StrikeLimit: 100})
	honest := []float64{1, 2, 0, -1}
	flipped := []float64{-1, -2, 0, 1}

	// Unarmed (fewer than cosineMinHistory commits): even an inverted
	// update passes — there is no reference to judge against yet.
	for i := 0; i < 3; i++ {
		if err := accept(t, v, 0, i, honest, 1); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if _, ok := v.LastCosine(); ok {
		t.Fatal("cosine computed before the gate armed")
	}
	if _, err := v.Check(1, 3, flipped, 1); !errors.Is(err, ErrDirectionOutlier) {
		t.Fatalf("inverted update: err = %v, want ErrDirectionOutlier", err)
	}
	if cos, ok := v.LastCosine(); !ok || cos > -0.99 {
		t.Fatalf("LastCosine = (%v, %v), want ~-1", cos, ok)
	}
	if v.Strikes(1) != 1 {
		t.Fatalf("strikes = %d, want 1", v.Strikes(1))
	}
	if err := accept(t, v, 2, 3, honest, 1); err != nil {
		t.Fatalf("aligned update rejected: %v", err)
	}
	if cos, ok := v.LastCosine(); !ok || cos < 0.99 {
		t.Fatalf("LastCosine = (%v, %v), want ~1", cos, ok)
	}
}

// TestCosineGateGeometryReset: a payload-length change (mask refresh)
// restarts the reference — the gate holds fire at the new geometry until
// cosineMinHistory fresh commits rebuild it, then arms again.
func TestCosineGateGeometryReset(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 2, Dim: 8, CosineFloor: 0.2, StrikeLimit: 100})
	wide := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	for i := 0; i < 3; i++ {
		if err := accept(t, v, 0, i, wide, 1); err != nil {
			t.Fatalf("wide commit %d: %v", i, err)
		}
	}
	if _, err := v.Check(1, 3, []float64{-1, -1, -1, -1, -1, -1, -1, -1}, 1); !errors.Is(err, ErrDirectionOutlier) {
		t.Fatalf("gate should be armed at the wide geometry: %v", err)
	}

	// Mask refresh: compact payloads are shorter. The first commits at the
	// new geometry pass unjudged (no reference), including inverted ones.
	narrow := []float64{2, -1}
	for i := 0; i < 3; i++ {
		if err := accept(t, v, 0, 4+i, narrow, 1); err != nil {
			t.Fatalf("narrow commit %d: %v", i, err)
		}
	}
	if _, err := v.Check(1, 7, []float64{-2, 1}, 1); !errors.Is(err, ErrDirectionOutlier) {
		t.Fatalf("gate should re-arm after the reset: %v", err)
	}
}

// TestCosineStateRoundTrip: the reference direction survives
// snapshot/restore — a restarted validator rejects a flipper on its
// first post-restore update, with no re-arming window. A snapshot taken
// before any commit (no reference) restores with the gate disarmed until
// fresh commits.
func TestCosineStateRoundTrip(t *testing.T) {
	cfg := ValidatorConfig{Clients: 2, Dim: 4, CosineFloor: 0.2, StrikeLimit: 100}
	v := NewValidator(cfg)
	honest := []float64{3, 0, -1, 2}
	flipped := []float64{-3, 0, 1, -2}
	for i := 0; i < 4; i++ {
		if err := accept(t, v, 0, i, honest, 1); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	v2 := NewValidator(cfg)
	if err := v2.restoreState(v.snapshotState()); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := v2.Check(1, 4, flipped, 1); !errors.Is(err, ErrDirectionOutlier) {
		t.Fatalf("restored gate disarmed: %v", err)
	}
	if err := accept(t, v2, 0, 4, honest, 1); err != nil {
		t.Fatalf("restored gate rejects honest update: %v", err)
	}

	if err := v2.restoreState(NewValidator(cfg).snapshotState()); err != nil {
		t.Fatalf("restore of a fresh validator's state: %v", err)
	}
	if _, err := v2.Check(1, 4, flipped, 1); err != nil {
		t.Fatalf("an empty reference should disarm the cosine gate: %v", err)
	}
}

// TestReviewRound: the post-round norm review strikes participants whose
// norm towers over the round median, accumulating to quarantine, and
// stays silent below 3 participants.
func TestReviewRound(t *testing.T) {
	v := NewValidator(ValidatorConfig{Clients: 4, Dim: 8, RoundNormMult: 1.5, StrikeLimit: 2})

	if s := v.ReviewRound(0, []int{0, 1}, []float64{1, 100}); s != nil {
		t.Fatalf("review of 2 participants struck %v", s)
	}
	strikes := v.ReviewRound(1, []int{0, 1, 2, 3}, []float64{1, 1.1, 0.9, 1.6})
	if len(strikes) != 1 || strikes[0].ID != 3 {
		t.Fatalf("round 1 strikes = %+v, want client 3 only", strikes)
	}
	if !errors.Is(strikes[0].Err, ErrNormOutlier) {
		t.Fatalf("strike error = %v, want ErrNormOutlier", strikes[0].Err)
	}
	if v.Quarantined(3) {
		t.Fatal("quarantined after one strike with limit 2")
	}
	strikes = v.ReviewRound(2, []int{0, 1, 2, 3}, []float64{1, 1, 1, 1.9})
	if len(strikes) != 1 || strikes[0].ID != 3 {
		t.Fatalf("round 2 strikes = %+v, want client 3 only", strikes)
	}
	if !v.Quarantined(3) || v.QuarantineRound(3) != 2 {
		t.Fatalf("client 3 quarantine = (%v, round %d), want (true, 2)",
			v.Quarantined(3), v.QuarantineRound(3))
	}

	// Disabled review never strikes.
	off := NewValidator(ValidatorConfig{Clients: 4, Dim: 8})
	if s := off.ReviewRound(0, []int{0, 1, 2}, []float64{1, 1, 50}); s != nil {
		t.Fatalf("disabled review struck %v", s)
	}
}
