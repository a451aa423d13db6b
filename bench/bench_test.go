package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"apf/internal/wire"
)

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not be reordered
	cases := []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}}
	for _, c := range cases {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// IQR of 1..5 is 4-2, the median 3.
	if got := spread(vals); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer(0)
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	// Recorded in completion order, as the wrappers do: children first.
	tr.add(spanPostIterate, at(2), at(3), 7, 0)
	tr.add(spanPostIterate, at(5), at(7), 7, 0)
	tr.add(spanTrain, at(0), at(10), 7, 0)
	tr.add(spanPrepareUpload, at(10), at(11), 7, 0)
	tr.add(spanCompact, at(11), at(12), 7, 0)
	tr.add(spanClientEncode, at(11), at(15), 7, 0)
	tr.add(spanRound, at(0), at(40), 7, 0)
	tr.add(spanTrain, at(0), at(9), 7, 1)          // another client, same round
	tr.add(spanFanoutWrite, at(30), at(31), 7, -1) // a tier's span has no parent
	tr.link()

	byName := func(name string, client int) int {
		for i, s := range tr.spans {
			if s.Name == name && s.Client == client {
				return i
			}
		}
		t.Fatalf("no %s span for client %d", name, client)
		return -1
	}
	round, train, enc := byName(spanRound, 0), byName(spanTrain, 0), byName(spanClientEncode, 0)
	for i, s := range tr.spans {
		want := -1
		switch {
		case s.Client != 0:
		case s.Name == spanPostIterate:
			want = train
		case s.Name == spanCompact:
			want = enc
		case s.Name != spanRound:
			want = round
		}
		if s.Parent != want {
			t.Errorf("span %d (%s, client %d): parent %d, want %d", i, s.Name, s.Client, s.Parent, want)
		}
	}
	self := selfTimes(tr.spans)
	for name, want := range map[string]float64{
		spanTrain:        10 - 1 - 2,      // minus both post-iterate calls
		spanClientEncode: 4 - 1,           // minus the compaction inside it
		spanRound:        40 - 10 - 1 - 4, // minus train, prepare, encode — not their children again
	} {
		if got := self[byName(name, 0)]; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, got, want)
		}
	}
}

func TestFrameHead(t *testing.T) {
	cases := []struct {
		msg   wire.Msg
		kind  wire.Kind
		round int
	}{
		{&wire.UpdateMsg{Round: 41, Payload: []float64{1, 2}, Weight: 1}, wire.KindUpdate, 41},
		{&wire.GlobalMsg{Round: 7, Payload: []float64{1}}, wire.KindGlobal, 7},
		{&wire.SparseGlobalMsg{Round: 9, Dim: 4, Enc: wire.CodecSparse.Enc(), Values: []float64{1}}, wire.KindSparseGlobal, 9},
		{&wire.JoinMsg{Name: "c0", HaveRound: -1}, wire.KindJoin, -1},
	}
	for _, c := range cases {
		kind, round := frameHead(wire.Encode(c.msg))
		if kind != c.kind || round != c.round {
			t.Errorf("frameHead(%T) = %v, %d; want %v, %d", c.msg, kind, round, c.kind, c.round)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := e2eMetric{"round_p50_ms", "ms", "lower", 0.10}
	higher := e2eMetric{"rounds_per_s", "1/s", "higher", 0.10}
	s := func(median, spread float64) samples {
		return samples{Values: []float64{median}, Median: median, Spread: spread}
	}
	cases := []struct {
		m    e2eMetric
		a, b samples
		want string
	}{
		{lower, s(100, 0.02), s(105, 0.02), "ok"},
		{lower, s(100, 0.02), s(80, 0.02), "ok"}, // faster is never a regression
		{lower, s(100, 0.02), s(115, 0.02), "regression"},
		{lower, s(100, 0.02), s(115, 0.12), "unresolved"}, // noisier than the bound
		{higher, s(100, 0.02), s(85, 0.02), "regression"},
		{higher, s(100, 0.02), s(120, 0.02), "ok"},
		{lower, samples{}, s(1, 0), "missing"},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v → %v) = %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps the driver's declaration in step with the tables
// the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []e2eMetric                           `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d declared as %q, defined as %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		if m != endToEnd[i] {
			t.Errorf("end-to-end metric %d declared as %+v, defined as %+v", i, m, endToEnd[i])
		}
	}
	var declared, defined []string
	for _, m := range decl.PerLayer {
		declared = append(declared, m.Name+" "+m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("per-layer metric %s: better = %q", m.Name, m.Better)
		}
	}
	for name, unit := range layerUnits {
		defined = append(defined, name+" "+unit)
	}
	sort.Strings(declared)
	sort.Strings(defined)
	if len(declared) != len(defined) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(declared), len(defined))
	}
	for i := range declared {
		if declared[i] != defined[i] {
			t.Errorf("per-layer metric declared as %q, defined as %q", declared[i], defined[i])
		}
	}
	for _, row := range blockingPath {
		if _, ok := layerUnits[row]; !ok {
			t.Errorf("blocking-path row %s is not a per-layer metric", row)
		}
	}
}

// short returns the workload cut to ten rounds.
func short(t *testing.T, name string) spec {
	s, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	s.Warmup, s.Rounds = 2, 8
	return s
}

// TestSmoke runs ten rounds of every workload, timed and traced, and holds
// them to the benchmark's own correctness checks: no failed operation,
// identical final models with and without tracing, agreement with the
// workload's oracle, and a per-layer table with every declared name.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			s := short(t, w.Name)
			tmp := t.TempDir()
			timed, err := runEpisode(s, 11, false, tmp)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runEpisode(s, 11, true, tmp)
			if err != nil {
				t.Fatal(err)
			}
			if timed.failed != 0 || traced.failed != 0 {
				t.Errorf("failed operations: %d timed, %d traced", timed.failed, traced.failed)
			}
			if timed.hash != traced.hash {
				t.Errorf("final model %016x timed, %016x traced", timed.hash, traced.hash)
			}
			if len(timed.gapsMs) != s.Rounds || timed.windowS <= 0 || timed.setupS <= 0 || timed.cpuS <= 0 {
				t.Errorf("timing: %d gaps, window %v, setup %v, cpu %v", len(timed.gapsMs), timed.windowS, timed.setupS, timed.cpuS)
			}
			if err := checkOracle(s, 11, timed, tmp); err != nil {
				t.Error(err)
			}

			// The conn wrappers saw exactly the bytes the tiers account for.
			if traced.trace.tapBytes != traced.wireBytes {
				t.Errorf("tier connections carried %d bytes, Server.WireBytes() says %d", traced.trace.tapBytes, traced.wireBytes)
			}
			if timed.wireBytes != traced.wireBytes {
				t.Errorf("wire bytes %d timed, %d traced", timed.wireBytes, traced.wireBytes)
			}

			table := layerTable(s, []*episodeResult{timed}, []*episodeResult{traced}, float64(s.Rounds)/timed.windowS)
			for name := range layerUnits {
				if _, ok := table[name]; !ok {
					t.Errorf("per-layer table lacks %s", name)
				}
			}
			sum := table["round.unattributed_ms"].Value
			for _, row := range blockingPath {
				sum += table[row].Value
			}
			if p50 := table["round.traced_p50_ms"].Value; math.Abs(sum-p50) > 1e-6 {
				t.Errorf("blocking path + unattributed = %v ms, traced round p50 = %v ms", sum, p50)
			}
			for _, name := range []string{"nn.train_ms", "client.write_ms", "client.wait_ms", "server.reduce_ms",
				"wire.up_frame_bytes", "wire.decode_ns_per_scalar", "fl.fold_ns_per_scalar", "proc.allocs_per_round"} {
				if table[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, table[name].Value)
				}
			}
			off := func(prefix string) {
				for name, m := range table {
					if len(name) > len(prefix) && name[:len(prefix)] == prefix && m.Value != 0 {
						t.Errorf("%s = %v on a workload that bypasses that layer", name, m.Value)
					}
				}
			}
			if !s.Durable {
				off("checkpoint.")
			}
			if !s.Validate {
				off("validate.")
			}
			if s.Relays == 0 {
				off("relay.")
				off("catchup.")
			} else {
				// Two churn clients, one sever each in ten rounds, all
				// resumed by replay.
				if got := table["catchup.resumes"].Value; got != 2 {
					t.Errorf("catchup.resumes = %v, want 2", got)
				}
				if got := table["catchup.mode_replay"].Value; got != 2 {
					t.Errorf("catchup.mode_replay = %v, want 2", got)
				}
				if table["relay.upstream_ms"].Value <= 0 || table["fl.partial_merge_ns_per_scalar"].Value <= 0 {
					t.Errorf("relay layer rows empty: %+v", table["relay.upstream_ms"])
				}
			}
		})
	}
}

// TestSparseSessionThroughWrapper pins that a sparse-q16 session negotiates
// and completes through the traced manager: the wrapper must keep
// core.Manager's codec and mask methods visible to the client.
func TestSparseSessionThroughWrapper(t *testing.T) {
	s := short(t, "sparse-q16-durable")
	ep, err := runEpisode(s, 5, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := ep.trace.tr
	if len(tr.up) != s.Clients || tr.down == nil {
		t.Fatalf("tapped %d update frames and down frame %v, want %d and one", len(tr.up), tr.down != nil, s.Clients)
	}
	if kind, _ := frameHead(tr.up[0]); kind != wire.KindSparseUpdate {
		t.Errorf("update frames are %v, want sparse updates", kind)
	}
	msg, _, err := wire.Decode(tr.down, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := msg.(*wire.SparseGlobalMsg)
	if !ok {
		t.Fatalf("aggregate frames are %T, want sparse globals", msg)
	}
	if g.Enc != wire.CodecSparseQ16.Enc() {
		t.Errorf("aggregate encoding %v, want binary16", g.Enc)
	}
	// About a tenth of the scalars cross the wire, two bytes each.
	if dense := wire.DenseGlobalFrameSize(g.Dim); len(tr.down)*20 > dense {
		t.Errorf("sparse-q16 frame has %d bytes, dense would have %d", len(tr.down), dense)
	}
	compacts := 0
	for _, sp := range tr.spans {
		if sp.Name == spanCompact {
			compacts++
		}
	}
	if want := s.Clients * s.total(); compacts != want {
		t.Errorf("%d compaction spans, want %d (one per client and round)", compacts, want)
	}
	if ep.trace.maskGens == 0 {
		t.Error("the wrapped manager reported no mask generations")
	}
}
