package netsim

import (
	"testing"
	"time"
)

func TestTransferTimes(t *testing.T) {
	p := LinkProfile{UpBitsPerSec: 8e6, DownBitsPerSec: 16e6}
	if got := p.TransferUp(1e6); got != time.Second {
		t.Errorf("1MB over 8Mbps = %v, want 1s", got)
	}
	if got := p.TransferDown(1e6); got != 500*time.Millisecond {
		t.Errorf("1MB over 16Mbps = %v, want 0.5s", got)
	}
}

func TestGlobalInternetProfile(t *testing.T) {
	p := GlobalInternet()
	// Paper §7.1: 3 Mbps up, 9 Mbps down.
	if p.UpBitsPerSec != 3e6 || p.DownBitsPerSec != 9e6 {
		t.Errorf("profile %+v deviates from the paper's 3/9 Mbps", p)
	}
	// Asymmetry: uploads of equal size take 3× longer (allow for
	// nanosecond truncation in the Duration conversion).
	up, down := p.TransferUp(3e5), p.TransferDown(3e5)
	if diff := up - 3*down; diff < -3 || diff > 3 {
		t.Errorf("up %v should be 3× down %v", up, down)
	}
}

func TestRoundTimeTakesSlowestClient(t *testing.T) {
	profiles := UniformProfiles(3, LinkProfile{
		UpBitsPerSec:   8e6,
		DownBitsPerSec: 8e6,
		ComputePerIter: time.Millisecond,
	})
	iters := UniformIters(3, 10)
	up := []int64{1000, 1e6, 1000} // client 1 pushes 1MB
	down := []int64{1000, 1000, 1000}
	rt := RoundTime(profiles, iters, up, down)
	// Client 1 dominates: 10ms compute + 1s upload + 1ms download.
	if rt < time.Second || rt > 1100*time.Millisecond {
		t.Errorf("round time %v, want ≈ 1.01s (slowest client)", rt)
	}
}

func TestRoundTimeValidatesLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	RoundTime(UniformProfiles(2, GlobalInternet()), UniformIters(3, 1), []int64{1, 2}, []int64{1, 2})
}

func TestInvalidBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero bandwidth")
		}
	}()
	LinkProfile{}.TransferUp(10)
}

func TestDropoutScheduleDeterministicAndSeedSensitive(t *testing.T) {
	a := NewDropoutSchedule(42, 5, 0.3)
	b := NewDropoutSchedule(42, 5, 0.3)
	c := NewDropoutSchedule(43, 5, 0.3)
	same, diff := true, true
	for r := 0; r < 40; r++ {
		for cl := 0; cl < 5; cl++ {
			if a.Active(r, cl) != b.Active(r, cl) {
				same = false
			}
			if a.Active(r, cl) != c.Active(r, cl) {
				diff = false
			}
		}
	}
	if !same {
		t.Error("identical seeds produced different schedules")
	}
	if diff {
		t.Error("different seeds produced identical schedules")
	}
}

func TestDropoutScheduleRates(t *testing.T) {
	// Rate 0: nobody ever drops.
	full := NewDropoutSchedule(1, 4, 0)
	for r := 0; r < 20; r++ {
		for c := 0; c < 4; c++ {
			if !full.Active(r, c) {
				t.Fatalf("rate-0 schedule dropped client %d at round %d", c, r)
			}
		}
	}
	// Rate 1: everyone would drop, but the fallback keeps exactly one
	// client per round so the server can always aggregate.
	empty := NewDropoutSchedule(1, 4, 1)
	for r := 0; r < 20; r++ {
		for c := 0; c < 4; c++ {
			if empty.Active(r, c) != (c == r%4) {
				t.Fatalf("rate-1 round %d: client %d active %v, want only the fallback slot", r, c, empty.Active(r, c))
			}
		}
	}
	// A middling rate drops someone eventually.
	mid := NewDropoutSchedule(7, 4, 0.4)
	dropped := false
	for r := 0; r < 40 && !dropped; r++ {
		for c := 0; c < 4; c++ {
			if !mid.Active(r, c) {
				dropped = true
			}
		}
	}
	if !dropped {
		t.Error("rate-0.4 schedule never dropped anyone in 40 rounds")
	}
}

// TestDropoutScheduleMarginalRate is the property test for the dropout
// model: over many seeded rounds the empirical per-cell drop frequency
// must converge on the configured rate. The fallback slot biases the
// empirical rate low by at most rate^clients per round, negligible here.
func TestDropoutScheduleMarginalRate(t *testing.T) {
	t.Parallel()
	const rounds, clients = 4000, 8
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		d := NewDropoutSchedule(99, clients, rate)
		dropped := 0
		for r := 0; r < rounds; r++ {
			for c := 0; c < clients; c++ {
				if !d.Active(r, c) {
					dropped++
				}
			}
		}
		got := float64(dropped) / float64(rounds*clients)
		if diff := got - rate; diff > 0.02 || diff < -0.02 {
			t.Errorf("rate %.2f: empirical drop rate %.4f (off by %.4f)", rate, got, diff)
		}
	}
}

// TestDropoutScheduleNeverEmpty: at any rate, every round keeps at least
// one active client (the server's aggregation floor depends on it).
func TestDropoutScheduleNeverEmpty(t *testing.T) {
	t.Parallel()
	for _, rate := range []float64{0.5, 0.9, 1.0} {
		d := NewDropoutSchedule(3, 6, rate)
		for r := 0; r < 500; r++ {
			any := false
			for c := 0; c < 6; c++ {
				any = any || d.Active(r, c)
			}
			if !any {
				t.Fatalf("rate %.1f: round %d has no active client", rate, r)
			}
		}
	}
}

// TestDelayScheduleMarginalRate is the property test for the delay model:
// the fraction of delayed cells converges on the configured rate, and
// every non-zero delay lands in [delay/2, delay).
func TestDelayScheduleMarginalRate(t *testing.T) {
	t.Parallel()
	const rounds, clients = 4000, 8
	base := 40 * time.Millisecond
	for _, rate := range []float64{0.15, 0.4} {
		d := NewDelaySchedule(17, clients, rate, base)
		delayed := 0
		for r := 0; r < rounds; r++ {
			for c := 0; c < clients; c++ {
				dl := d.DelayAt(r, c)
				if dl == 0 {
					continue
				}
				delayed++
				if dl < base/2 || dl >= base {
					t.Fatalf("rate %.2f: delay %v outside [%v, %v)", rate, dl, base/2, base)
				}
			}
		}
		got := float64(delayed) / float64(rounds*clients)
		if diff := got - rate; diff > 0.02 || diff < -0.02 {
			t.Errorf("rate %.2f: empirical delay rate %.4f (off by %.4f)", rate, got, diff)
		}
	}
}

// TestDelayScheduleDeterministicAndSeedSensitive mirrors the dropout
// determinism contract for the delay model, and checks that sharing a
// seed with a DropoutSchedule does not correlate the two draws.
func TestDelayScheduleDeterministicAndSeedSensitive(t *testing.T) {
	t.Parallel()
	base := 20 * time.Millisecond
	a := NewDelaySchedule(42, 5, 0.3, base)
	b := NewDelaySchedule(42, 5, 0.3, base)
	c := NewDelaySchedule(43, 5, 0.3, base)
	same, diff := true, true
	for r := 0; r < 40; r++ {
		for cl := 0; cl < 5; cl++ {
			if a.DelayAt(r, cl) != b.DelayAt(r, cl) {
				same = false
			}
			if a.DelayAt(r, cl) != c.DelayAt(r, cl) {
				diff = false
			}
		}
	}
	if !same {
		t.Error("identical seeds produced different delay schedules")
	}
	if diff {
		t.Error("different seeds produced identical delay schedules")
	}

	// Decorrelation from a same-seed dropout schedule: the delayed set and
	// the dropped set must not coincide.
	drop := NewDropoutSchedule(42, 5, 0.3)
	agree, total := 0, 0
	for r := 0; r < 200; r++ {
		for cl := 0; cl < 5; cl++ {
			total++
			if (a.DelayAt(r, cl) > 0) == !drop.Active(r, cl) {
				agree++
			}
		}
	}
	if agree == total {
		t.Error("delay draws perfectly correlate with dropout draws sharing the seed")
	}
}
