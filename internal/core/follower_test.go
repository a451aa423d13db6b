package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// followerDim has a trailing partial mask word.
const followerDim = 517

// followerCommit is round's committed aggregate: the oscillating trajectory
// of driveRounds (so scalars freeze and thaw word by word), compacted
// against the client's mask on every third round, as a server on a sparse
// codec commits it.
func followerCommit(client *Manager, round int) []float64 {
	g := make([]float64, followerDim)
	for j := range g {
		osc := 0.001 * (1 + math.Sin(float64(j/64)))
		if round%2 == 1 {
			osc = -osc
		}
		g[j] = math.Cos(float64(j)) + osc + math.Pow(0.5, float64(round))*0.01
	}
	if round%3 == 2 {
		return append([]float64(nil), client.CompactUpload(round, g)...)
	}
	return g
}

// clientApply runs one client round: a local training step that the
// rollback undoes on frozen scalars, then the commit, expanded when it is
// compacted, as a transport client applies it.
func clientApply(m *Manager, x []float64, round int, payload []float64) {
	for j := range x {
		x[j] += math.Sin(float64(round*31+j)) * 0.1
	}
	m.PostIterate(round, x)
	dense := payload
	if len(dense) != len(x) {
		dense = m.ExpandDownload(round, dense)
	}
	m.ApplyDownload(round, x, dense)
}

// requireFollows fails unless f holds exactly the client's state after the
// same commits: the captured state (whose Ref must be the client's model
// bit for bit), word generations, and the mask governing the next round.
func requireFollows(t *testing.T, step string, f *Follower, client *Manager, x []float64) {
	t.Helper()
	st, ok := f.Capture()
	if !ok {
		t.Fatalf("%s: follower captured nothing", step)
	}
	for j := range x {
		if math.Float64bits(st.Ref[j]) != math.Float64bits(x[j]) {
			t.Fatalf("%s: model scalar %d: follower %v, client %v", step, j, st.Ref[j], x[j])
		}
	}
	if !reflect.DeepEqual(st, client.Snapshot()) {
		t.Fatalf("%s: follower snapshot differs from the client's", step)
	}
	if !reflect.DeepEqual(f.mgr.WordGens(), client.WordGens()) {
		t.Fatalf("%s: word generations differ", step)
	}
	next := f.Round() + 1
	client.CompactLen(next) // make the client's mask current for round next
	if !reflect.DeepEqual(f.NextMask().Words(), client.MaskWords()) {
		t.Fatalf("%s: mask for round %d differs", step, next)
	}
}

// TestModelIsRefAfterDownload pins the invariant the follower and every
// stateful catch-up rest on: right after each ApplyDownload a client's
// model equals the manager's rollback vector bit for bit, so State.Ref is
// the synchronized model. It covers every freezing policy, plain APF, APF#
// and APF++, threshold decay, and mask-compacted pulls, with a local
// training step between the downloads.
func TestModelIsRefAfterDownload(t *testing.T) {
	policies := []FreezePolicy{AIMD{}, PureAdditive{}, PureMultiplicative{}, Fixed{Checks: 3}, Permanent{}}
	randoms := []RandomFreeze{{}, {Mode: RandomFixed, Prob: 0.3}, {Mode: RandomGrowing, ProbGrowth: 0.01, LenGrowth: 0.05}}
	decayed := false
	for _, policy := range policies {
		for _, random := range randoms {
			cfg := reconTestConfig(followerDim)
			cfg.Policy, cfg.Random, cfg.ThresholdDecayFrac = policy, random, 0.3
			m := NewManager(cfg)
			x := make([]float64, followerDim)
			frozen, compacted := false, 0
			for round := 0; round < 120; round++ {
				p := followerCommit(m, round)
				if len(p) != followerDim {
					compacted++
				}
				clientApply(m, x, round, p)
				for j := range x {
					if math.Float64bits(x[j]) != math.Float64bits(m.ref[j]) {
						t.Fatalf("%T/%v round %d: model scalar %d is %v, ref %v",
							policy, random.Mode, round, j, x[j], m.ref[j])
					}
				}
				frozen = frozen || m.FrozenRatio() > 0
			}
			if !frozen || compacted == 0 {
				t.Fatalf("%T/%v: trajectory froze %v, %d compacted pulls", policy, random.Mode, frozen, compacted)
			}
			decayed = decayed || m.Threshold() < cfg.Threshold
		}
	}
	if !decayed {
		t.Fatal("no configuration decayed its threshold")
	}
}

// TestFollowerTracksClientManager drives a follower and an APF# client
// manager with the same commits, dense and compacted mixed, and compares
// them after every round; then checks that a gap and a compacted payload
// of the wrong length each desync the follower, that Restore refuses a
// missing or word-restricted state, and that Restore from the client's
// full state resumes following bit for bit.
func TestFollowerTracksClientManager(t *testing.T) {
	cfg := reconTestConfig(followerDim) // APF# random freezing, aggressive threshold
	client := NewManager(cfg)
	x := make([]float64, followerDim)
	f := NewFollower(cfg)
	if _, ok := f.Capture(); ok {
		t.Fatal("a fresh follower captured state")
	}
	commits := make([][]float64, 0, 60)
	compacted, frozen := 0, false
	for round := 0; round < 40; round++ {
		p := followerCommit(client, round)
		commits = append(commits, p)
		if len(p) != followerDim {
			compacted++
		}
		clientApply(client, x, round, p)
		if err := f.Observe(round, p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		requireFollows(t, fmt.Sprintf("round %d", round), f, client, x)
		frozen = frozen || client.FrozenRatio() > 0
	}
	if compacted == 0 || !frozen {
		t.Fatalf("trajectory exercised %d compacted commits, freezing %v", compacted, frozen)
	}

	desync := func(name string, round int, payload []float64) *Follower {
		t.Helper()
		d := NewFollower(cfg)
		for r := 0; r < 40; r++ {
			if err := d.Observe(r, commits[r]); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Observe(round, payload); err == nil {
			t.Fatalf("%s: observed without error", name)
		}
		if _, ok := d.Capture(); ok {
			t.Fatalf("%s: desynced follower still captures", name)
		}
		if err := d.Observe(40, followerCommit(client, 40)); err == nil {
			t.Fatalf("%s: desynced follower observed the next round", name)
		}
		return d
	}
	gap := desync("gap", 41, make([]float64, followerDim))
	bad := client.CompactLen(40) + 1 // not the round's compacted length, and not dense
	if bad == followerDim {
		bad -= 2
	}
	short := desync("wrong-length compacted payload", 40, make([]float64, bad))
	if err := short.Restore(39, nil); err == nil {
		t.Fatal("restore without a manager state succeeded")
	}
	if part, err := client.Snapshot().Select([]int{0, 1}); err != nil {
		t.Fatal(err)
	} else if err := short.Restore(39, part); err == nil {
		t.Fatal("restore from a word-restricted state succeeded")
	}

	// Both resume from the client's state at round 39 and follow it.
	for _, d := range []*Follower{gap, short} {
		if err := d.Restore(39, client.Snapshot()); err != nil {
			t.Fatal(err)
		}
		requireFollows(t, "restored", d, client, x)
	}
	for round := 40; round < 60; round++ {
		p := followerCommit(client, round)
		clientApply(client, x, round, p)
		for _, d := range []*Follower{f, gap, short} {
			if err := d.Observe(round, p); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			requireFollows(t, fmt.Sprintf("round %d after restore", round), d, client, x)
		}
	}
}
