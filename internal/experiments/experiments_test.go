package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	// Every artifact of the paper's evaluation must be registered.
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9",
		"fig11", "table1", "table2", "table3", "table4",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22",
		"ext-ema", "ext-dp", "ext-baselines",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
		if Title(id) == "" {
			t.Errorf("experiment %q has no title", id)
		}
	}
	if got := len(IDs()); got != len(want) {
		t.Errorf("registry has %d ids, want %d", got, len(want))
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("fig99"); ok {
		t.Error("Get accepted an unknown id")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale names wrong")
	}
	if !strings.Contains(Scale(9).String(), "9") {
		t.Error("unknown scale should render its number")
	}
}

// table3RTT is the round-trip latency table3RoundTime adds once per round.
const table3RTT = 50 * time.Millisecond

// TestTransferTimes pins the bytes-over-bandwidth arithmetic: 1 MB is
// 8·10⁶ bits, 1 s at 8 Mbps and 0.5 s at 16 Mbps.
func TestTransferTimes(t *testing.T) {
	if got := linkTime(1e6, 8e6); got != time.Second {
		t.Errorf("1MB over 8Mbps = %v, want 1s", got)
	}
	if got := linkTime(1e6, 16e6); got != 500*time.Millisecond {
		t.Errorf("1MB over 16Mbps = %v, want 0.5s", got)
	}
}

// TestGlobalInternetProfile pins table3's links to the paper's §7.1
// profile on hand-computed inputs: 125,000 B is 10⁶ bits, 1/3 s on the
// 3 Mbps uplink; 1,125,000 B is 9·10⁶ bits, 1 s on the 9 Mbps downlink;
// an empty round costs one RTT; and equal payloads take 3× longer up.
func TestGlobalInternetProfile(t *testing.T) {
	if got := table3RoundTime(0, 0, []int64{0}, []int64{0}); got != table3RTT {
		t.Errorf("empty round: %v, want one RTT %v", got, table3RTT)
	}
	if got, want := table3RoundTime(0, 0, []int64{125_000}, []int64{0}), 333_333_333*time.Nanosecond+table3RTT; got != want {
		t.Errorf("125,000 B up: %v, want %v", got, want)
	}
	if got, want := table3RoundTime(0, 0, []int64{0}, []int64{1_125_000}), time.Second+table3RTT; got != want {
		t.Errorf("1,125,000 B down: %v, want %v", got, want)
	}
	// Asymmetry: uploads of equal size take 3× longer (allow for
	// nanosecond truncation in the Duration conversion).
	up := table3RoundTime(0, 0, []int64{3e5}, []int64{0}) - table3RTT
	down := table3RoundTime(0, 0, []int64{0}, []int64{3e5}) - table3RTT
	if diff := up - 3*down; diff < -3 || diff > 3 {
		t.Errorf("up %v should be 3× down %v", up, down)
	}
}

// TestRoundTimeTakesSlowestClient: the aggregation barrier waits for the
// slowest client, so the round time is the straggler's, not the mean.
func TestRoundTimeTakesSlowestClient(t *testing.T) {
	// Client 1 pushes the most and is the round's straggler: 10 × 1 ms of
	// compute, 1/3 s up, 1 s down and one RTT.
	up := []int64{1_000, 125_000, 0}
	down := []int64{1_125_000, 1_125_000, 1_125_000}
	if got, want := table3RoundTime(time.Millisecond, 10, up, down), 10*time.Millisecond+333_333_333*time.Nanosecond+time.Second+table3RTT; got != want {
		t.Errorf("round time %v, want %v (the slowest client)", got, want)
	}
}

func TestSplitTrainTestBalanced(t *testing.T) {
	w := lenetWorkload(Quick, 5)
	counts := func(labels []int) map[int]int {
		m := make(map[int]int)
		for _, y := range labels {
			m[y]++
		}
		return m
	}
	trainC, testC := counts(w.train.Labels), counts(w.test.Labels)
	if len(trainC) != 10 || len(testC) != 10 {
		t.Fatalf("splits not class-complete: train %d classes, test %d classes", len(trainC), len(testC))
	}
	for c, n := range testC {
		if n < 5 {
			t.Errorf("test class %d has only %d samples", c, n)
		}
	}
}

func TestWorkloadsShareDistribution(t *testing.T) {
	// The same seed must give identical datasets on repeated calls (the
	// memoized e2e runs depend on it).
	a := lstmWorkload(Quick, 3)
	b := lstmWorkload(Quick, 3)
	for i := range a.train.X.Data {
		if a.train.X.Data[i] != b.train.X.Data[i] {
			t.Fatal("workload generation is not deterministic")
		}
	}
}

// TestTraceStabilization runs the shared single-node trace (the fig1/2/3/7
// backbone) at a miniature size and verifies the stabilization phenomenon
// the whole paper rests on: average effective perturbation decays.
func TestTraceStabilization(t *testing.T) {
	w := lenetWorkload(Quick, 2)
	tr := localTrace(w, 20, 4, 2)
	if len(tr.perturb) != 20 || len(tr.params) != 20 || len(tr.acc) != 20 {
		t.Fatalf("trace lengths wrong: %d/%d/%d", len(tr.perturb), len(tr.params), len(tr.acc))
	}
	early := 0.0
	late := 0.0
	for j := 0; j < tr.dim; j++ {
		early += tr.perturb[5][j]
		late += tr.perturb[19][j]
	}
	if late >= early {
		t.Errorf("mean effective perturbation did not decay: epoch5=%v epoch19=%v",
			early/float64(tr.dim), late/float64(tr.dim))
	}
	// Accuracy is recorded as best-ever: non-decreasing.
	for e := 1; e < len(tr.acc); e++ {
		if tr.acc[e] < tr.acc[e-1] {
			t.Fatal("best-ever accuracy decreased")
		}
	}
}

// TestRunnerOutputs runs two cheap registered experiments end to end and
// checks their Output structure.
func TestRunnerOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runners are seconds-long")
	}
	for _, id := range []string{"fig2", "table4"} {
		runner, _ := Get(id)
		out, err := runner(Quick, 3)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out.ID != id {
			t.Errorf("%s: output id %q", id, out.ID)
		}
		if len(out.Figures) == 0 && len(out.Tables) == 0 {
			t.Errorf("%s produced no artifacts", id)
		}
		var b strings.Builder
		if err := out.Render(&b); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
		if !strings.Contains(b.String(), id) {
			t.Errorf("%s render missing id:\n%s", id, b.String())
		}
	}
}
