package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// e2eMetric declares one end-to-end metric: which direction is better and
// the share of the baseline's median it may worsen by before -compare calls
// a regression. BENCHMARK.json carries the same table for the driver; a
// test keeps the two in step.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"round_p50_ms", "ms", "lower", 0.25},
	{"round_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_round", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"wire_bytes_per_round", "B", "lower", 0.08},
}

// header identifies the machine and build a report came from.
type header struct {
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	Commit     string `json:"commit"`
}

func newHeader() header {
	h := header{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h header) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Commit)
}

// samples is one end-to-end metric's value on every timed run of a workload.
type samples struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile range ÷ median
}

// workloadReport is everything the report holds about one workload. Config
// echoes the spec the runs used, which is what -rerun reads back.
type workloadReport struct {
	Config    spec               `json:"config"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"` // measured rounds behind the latest run's percentiles
	Hashes    map[string]string  `json:"hashes"`  // final-model hash by episode sub-seed
	Notes     []string           `json:"notes,omitempty"`
	EndToEnd  map[string]samples `json:"end_to_end"`
	PerLayer  map[string]metric  `json:"per_layer"`
}

type report struct {
	Header    header            `json:"header"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Runs      int               `json:"runs"`
	Workloads []*workloadReport `json:"workloads"`
}

func newWorkloadReport(s spec, res *runResult, traced bool) *workloadReport {
	w := &workloadReport{Config: s, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Samples: res.Samples, Hashes: res.Hashes, Notes: res.Notes,
		EndToEnd: make(map[string]samples), PerLayer: make(map[string]metric)}
	for name, m := range res.Metrics {
		if traced {
			w.PerLayer[name] = m
		} else {
			w.EndToEnd[name] = samples{Unit: m.Unit, Values: []float64{m.Value}, Median: m.Value}
		}
	}
	return w
}

// merge folds another run of the same workload into w.
func (w *workloadReport) merge(o *workloadReport) {
	w.Correct = w.Correct && o.Correct
	w.Attempted += o.Attempted
	w.Failed += o.Failed
	for sub, h := range o.Hashes {
		w.Hashes[sub] = h
	}
	w.Notes = append(w.Notes, o.Notes...)
	if o.Samples > 0 {
		w.Samples = o.Samples
	}
	for name, s := range o.EndToEnd {
		have := w.EndToEnd[name]
		have.Unit = s.Unit
		have.Values = append(have.Values, s.Values...)
		have.Median, have.Spread = median(have.Values), spread(have.Values)
		w.EndToEnd[name] = have
	}
	for name, m := range o.PerLayer {
		w.PerLayer[name] = m
	}
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll runs every workload `runs` times with tracing off and once with
// tracing on, each run in a fresh child process so that peak RSS, GC state
// and GOMAXPROCS are per run, and merges the children's reports. It returns
// the process exit code.
func runAll(specs []spec, seed int64, seconds float64, runs int, rerun, tmp, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(2, err)
	}
	dir, err := os.MkdirTemp(tmp, "bench-")
	if err != nil {
		fatal(2, err)
	}
	defer os.RemoveAll(dir)
	rep := &report{Header: newHeader(), Seed: seed, Seconds: seconds, Runs: runs}
	fmt.Printf("# %s\n", rep.Header)
	code := 0
	for _, s := range specs {
		var w *workloadReport
		for run := 0; run <= runs; run++ {
			// The last run is the traced one, on the first run's seed.
			traced, runSeed := 0, seed+int64(run)
			if run == runs {
				traced, runSeed = 1, seed
			}
			child := filepath.Join(dir, "child.json")
			args := []string{"-workload", s.Name, "-seed", fmt.Sprint(runSeed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(traced), "-out", child}
			if rerun != "" {
				args = append(args, "-rerun", rerun)
			}
			if tmp != "" {
				args = append(args, "-tmp", tmp)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", s.Name, run, err)
				code = 1
			}
			one, err := readReport(child)
			if err != nil {
				continue // the child failed before it could report
			}
			os.Remove(child)
			if w == nil {
				w = one.Workloads[0]
			} else {
				w.merge(one.Workloads[0])
			}
		}
		if w != nil {
			rep.Workloads = append(rep.Workloads, w)
		}
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fatal(2, err)
		}
	}
	return code
}

// compareReports applies each end-to-end metric's bound to every
// (metric, workload) pair of two reports — a the baseline, b the candidate —
// and prints one verdict per pair: ok, regression, or unresolved when either
// side's own run-to-run spread is wider than the bound, so that a difference
// of that size could not be told from noise. Final-model hashes of the
// episode sub-seeds both reports ran must agree exactly. It returns 1 on
// any regression or hash mismatch.
func compareReports(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		fatal(2, err)
	}
	b, err := readReport(pathB)
	if err != nil {
		fatal(2, err)
	}
	byName := make(map[string]*workloadReport)
	for _, w := range b.Workloads {
		byName[w.Config.Name] = w
	}
	code := 0
	fmt.Printf("%-20s %-22s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "a.median", "b.median", "worse", "spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Config.Name]
		if wb == nil {
			fmt.Printf("%-20s missing from %s\n", wa.Config.Name, pathB)
			code = 1
			continue
		}
		if !wb.Correct || wb.Failed > 0 {
			fmt.Printf("%-20s incorrect in %s (%d of %d failed)\n", wa.Config.Name, pathB, wb.Failed, wb.Attempted)
			code = 1
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			verdict, worse, noise := judge(m, sa, sb)
			if verdict == "regression" {
				code = 1
			}
			fmt.Printf("%-20s %-22s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wa.Config.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*noise, 100*m.Bound, verdict)
		}
		common, differ := 0, 0
		for sub, h := range wa.Hashes {
			if other, ok := wb.Hashes[sub]; ok {
				common++
				if other != h {
					differ++
				}
			}
		}
		if differ > 0 {
			code = 1
		}
		fmt.Printf("%-20s final-model hashes: %d of %d common sub-seeds differ\n", wa.Config.Name, differ, common)
	}
	return code
}

// judge returns the verdict for one metric on one workload, with how much
// worse b's median is than a's (as a share of a's) and the wider of the two
// sides' spreads.
func judge(m e2eMetric, a, b samples) (verdict string, worse, noise float64) {
	if len(a.Values) == 0 || len(b.Values) == 0 || a.Median == 0 {
		return "missing", 0, 0
	}
	worse = (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	noise = a.Spread
	if b.Spread > noise {
		noise = b.Spread
	}
	switch {
	case noise > m.Bound:
		return "unresolved", worse, noise
	case worse > m.Bound:
		return "regression", worse, noise
	}
	return "ok", worse, noise
}
