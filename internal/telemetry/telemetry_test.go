package telemetry

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := New()
	c := reg.Counter("apf_test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters never go down
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("apf_test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestRegistryReturnsSameHandle(t *testing.T) {
	reg := New()
	a := reg.Counter("apf_dup_total", "h", "k", "v")
	b := reg.Counter("apf_dup_total", "h", "k", "v")
	if a != b {
		t.Fatal("same (name, labels) must return the same handle")
	}
	other := reg.Counter("apf_dup_total", "h", "k", "w")
	if a == other {
		t.Fatal("different labels must return different handles")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := New()
	reg.Counter("apf_conflict", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind conflict")
		}
	}()
	reg.Gauge("apf_conflict", "h")
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x", "h")
	g := reg.Gauge("x", "h")
	h := reg.Histogram("x", "h", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	if err := reg.WriteText(io.Discard); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}
	if reg.Snapshot() != nil || reg.Names() != nil {
		t.Fatal("nil registry reads must be nil")
	}

	log := With(nil, "a", 1)
	log.Info("silent", "k", "v")
	log.Error("silent")
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("With(nil) must enable no level")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := New()
	h := reg.Histogram("apf_lat_seconds", "h", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.7, 2.0} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-3.15) > 1e-12 {
		t.Fatalf("sum = %v, want 3.15", h.Sum())
	}
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Buckets must be cumulative: 0.05 and 0.1 both fall in le="0.1"
	// (le is inclusive), 0.3 adds to le="0.5", 0.7 to le="1", and 2.0
	// only appears in +Inf.
	for _, want := range []string{
		`apf_lat_seconds_bucket{le="0.1"} 2`,
		`apf_lat_seconds_bucket{le="0.5"} 3`,
		`apf_lat_seconds_bucket{le="1"} 4`,
		`apf_lat_seconds_bucket{le="+Inf"} 5`,
		`apf_lat_seconds_sum 3.15`,
		`apf_lat_seconds_count 5`,
		"# TYPE apf_lat_seconds histogram",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	reg := New()
	h := reg.Histogram("apf_edge_seconds", "h", []float64{1})
	h.Observe(1) // exactly on the bound: le="1" means ≤ 1
	var buf strings.Builder
	reg.WriteText(&buf)
	if !strings.Contains(buf.String(), `apf_edge_seconds_bucket{le="1"} 1`) {
		t.Fatalf("observation at bound must land in its bucket:\n%s", buf.String())
	}
}

func TestExpositionEscaping(t *testing.T) {
	reg := New()
	reg.Counter("apf_esc_total", `help with \ and newline`+"\n", "path", `a"b\c`+"\n").Inc()
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP apf_esc_total help with \\ and newline\n`) {
		t.Errorf("HELP escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `apf_esc_total{path="a\"b\\c\n"} 1`) {
		t.Errorf("label value escaping wrong:\n%s", out)
	}
	// Escaped output must stay one line per sample.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if line == "" {
			t.Errorf("empty exposition line in:\n%s", out)
		}
	}
}

func TestExpositionLabelsAndOrder(t *testing.T) {
	reg := New()
	reg.Counter("apf_first_total", "h").Add(7)
	reg.Gauge("apf_second", "h", "kind", "update").Set(3)
	reg.Gauge("apf_second", "h", "kind", "global").Set(4)
	var buf strings.Builder
	reg.WriteText(&buf)
	out := buf.String()
	first := strings.Index(out, "apf_first_total")
	second := strings.Index(out, "apf_second")
	if first < 0 || second < 0 || first > second {
		t.Fatalf("families must expose in registration order:\n%s", out)
	}
	for _, want := range []string{
		`apf_second{kind="update"} 3`,
		`apf_second{kind="global"} 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:            "0",
		5:            "5",
		-3:           "-3",
		2.5:          "2.5",
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestConcurrentRecordAndScrape(t *testing.T) {
	reg := New()
	c := reg.Counter("apf_conc_total", "h")
	h := reg.Histogram("apf_conc_seconds", "h", nil)
	const workers, perWorker = 4, 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := reg.WriteText(io.Discard); err != nil {
			t.Errorf("scrape %d: %v", i, err)
		}
		// Registration while recording must also be safe.
		reg.Counter("apf_conc_total", "h").Value()
	}
	wg.Wait()
	if c.Value() != workers*perWorker || h.Count() != workers*perWorker {
		t.Fatalf("lost updates: counter=%d histogram=%d want %d",
			c.Value(), h.Count(), workers*perWorker)
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "WARN": slog.LevelWarn,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil || err.Error() != `invalid log level "loud" (want debug, info, warn, or error)` {
		t.Errorf("ParseLevel(loud) = %v", err)
	}
	for _, format := range []string{"text", "json", "JSON"} {
		if _, err := NewLogger(io.Discard, slog.LevelInfo, format); err != nil {
			t.Errorf("NewLogger(%q): %v", format, err)
		}
	}
	if _, err := NewLogger(io.Discard, slog.LevelInfo, "xml"); err == nil || err.Error() != `invalid log format "xml" (want text or json)` {
		t.Errorf("NewLogger(xml) = %v", err)
	}
}

func TestLoggerJSON(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("dropped below level")
	log = log.With("component", "server")
	log.Info("round committed", "round", 7, "clients", int64(3), "frac", 0.25,
		"partial", true, "err", io.EOF, "took", 250*time.Millisecond)
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Fatalf("debug must be filtered at info level: %s", out)
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(out), &ev); err != nil {
		t.Fatalf("event is not valid JSON: %v\n%s", err, out)
	}
	if _, ok := ev["time"].(string); !ok || ev["level"] != "INFO" || ev["msg"] != "round committed" ||
		ev["component"] != "server" || ev["round"] != float64(7) ||
		ev["clients"] != float64(3) || ev["frac"] != 0.25 ||
		ev["partial"] != true || ev["err"] != "EOF" || ev["took"] != float64(250*time.Millisecond) {
		t.Fatalf("bad event fields: %#v", ev)
	}
	if !strings.HasSuffix(out, "\n") || strings.Count(out, "\n") != 1 {
		t.Fatalf("want exactly one JSONL line, got %q", out)
	}
}

func TestLoggerJSONEscaping(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, slog.LevelDebug, "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Debug("quote \" slash \\ newline \n tab \t", "k", "v\"w")
	var ev map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &ev); err != nil {
		t.Fatalf("escaped event is not valid JSON: %v\n%s", err, buf.String())
	}
	if ev["msg"] != "quote \" slash \\ newline \n tab \t" || ev["k"] != `v"w` {
		t.Fatalf("escaping mangled content: %#v", ev)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("an escaped event must stay on one line: %q", buf.String())
	}
}

func TestLoggerText(t *testing.T) {
	var buf strings.Builder
	log, err := NewLogger(&buf, slog.LevelWarn, "text")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hidden")
	log.Warn("slow append", "latency", 250*time.Millisecond, "path", "/tmp/a b")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("info must be filtered at warn level: %s", out)
	}
	if !strings.HasPrefix(out, "time=") ||
		!strings.Contains(out, ` level=WARN msg="slow append" latency=250ms path="/tmp/a b"`+"\n") {
		t.Fatalf("bad text line: %q", out)
	}
}

func TestLoggerEnabled(t *testing.T) {
	log, err := NewLogger(io.Discard, slog.LevelWarn, "text")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if log.Enabled(ctx, slog.LevelInfo) || !log.Enabled(ctx, slog.LevelWarn) || !log.Enabled(ctx, slog.LevelError) {
		t.Fatal("Enabled must respect the configured level")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := New()
	reg.Counter("apf_handler_total", "h").Add(9)
	health := func() []any {
		return []any{"round", 12, "recovered", true, "committed_rounds", int64(12), "note", "say \"hi\"\nbye"}
	}
	srv := httptest.NewServer(Handler(reg, health))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(metrics, "apf_handler_total 9") {
		t.Errorf("metrics body missing counter:\n%s", metrics)
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("metrics content type = %q", ctype)
	}

	// One compact JSON object, keys sorted, the quote and newline escaped.
	healthz, _ := get("/healthz")
	if want := `{"committed_rounds":12,"note":"say \"hi\"\nbye","recovered":true,"round":12,"status":"ok"}` + "\n"; healthz != want {
		t.Errorf("healthz = %q, want %q", healthz, want)
	}

	pprofIdx, _ := get("/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Errorf("pprof index missing profiles:\n%.200s", pprofIdx)
	}
}

func TestServe(t *testing.T) {
	reg := New()
	reg.Counter("apf_serve_total", "h").Inc()
	ln, err := Serve("127.0.0.1:0", Handler(reg, nil), func(err error) {
		t.Errorf("serve error: %v", err)
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "apf_serve_total 1") {
		t.Fatalf("bad body: %s", body)
	}
	ln.Close()
	// Give the swallow-net.ErrClosed path a moment to run under -race.
	time.Sleep(10 * time.Millisecond)
}

// TestFlags covers the daemons' shared observability flags: unset, no
// registry exists and Serve starts nothing; set, the registry carries the
// build info and the endpoint binds. (Bad values are rejected through each
// daemon's main_test table.)
func TestFlags(t *testing.T) {
	bind := func(args ...string) *Flags {
		fs := flag.NewFlagSet("apf-test", flag.ContinueOnError)
		f := BindFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f
	}

	off := bind()
	if off.PrintVersion() {
		t.Fatal("-version reported without being given")
	}
	if err := off.Resolve(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if off.Metrics != nil || off.Log.Enabled(ctx, slog.LevelInfo) || !off.Log.Enabled(ctx, slog.LevelWarn) {
		t.Fatalf("defaults: want no registry and a warn-level logger, got %v, info=%v", off.Metrics, off.Log.Enabled(ctx, slog.LevelInfo))
	}
	health := func() []any { return []any{"round", 3} }
	stop, err := off.Serve(health)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	on := bind("-metrics-addr", "127.0.0.1:0", "-log-level", "debug", "-log-format", "json")
	if err := on.Resolve(); err != nil {
		t.Fatal(err)
	}
	if !on.Log.Enabled(ctx, slog.LevelDebug) {
		t.Error("-log-level debug not applied")
	}
	if names := on.Metrics.Names(); len(names) != 1 || names[0] != "apf_build_info" {
		t.Errorf("fresh registry holds %v, want exactly the build info", names)
	}
	stop, err = on.Serve(health)
	if err != nil {
		t.Fatal(err)
	}
	stop()
}

func TestRegisterBuildInfo(t *testing.T) {
	reg := New()
	bi := RegisterBuildInfo(reg)
	if bi.GoVersion == "" {
		t.Fatal("GoVersion must be populated")
	}
	var buf strings.Builder
	reg.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "apf_build_info{") || !strings.Contains(out, "} 1\n") {
		t.Fatalf("build info gauge missing:\n%s", out)
	}
	if !strings.Contains(out, "goversion=") {
		t.Fatalf("goversion label missing:\n%s", out)
	}
	if bi.String() == "" {
		t.Fatal("String must render")
	}
}

func TestSnapshot(t *testing.T) {
	reg := New()
	reg.Counter("apf_snap_total", "h", "k", "v").Add(3)
	reg.Gauge("apf_snap_gauge", "h").Set(1.5)
	reg.Histogram("apf_snap_seconds", "h", []float64{1}).Observe(0.5)
	s := reg.Snapshot()
	if s[`apf_snap_total{k="v"}`] != 3 || s["apf_snap_gauge"] != 1.5 ||
		s["apf_snap_seconds"] != 1 || s["apf_snap_seconds_sum"] != 0.5 {
		t.Fatalf("bad snapshot: %v", s)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("apf_bench_total", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("apf_bench_seconds", "h", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func TestRecordPathsDoNotAllocate(t *testing.T) {
	reg := New()
	c := reg.Counter("apf_alloc_total", "h")
	g := reg.Gauge("apf_alloc_gauge", "h")
	h := reg.Histogram("apf_alloc_seconds", "h", nil)
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(2)
		g.Set(1)
		g.Add(0.5)
		h.Observe(0.01)
	}); n != 0 {
		t.Fatalf("record path allocates %v per run, want 0", n)
	}
}
