// Command bench is the repository's end-to-end benchmark: it builds a real
// Server/Relay/Client cluster on TCP loopback from the transport package's
// public API, drives it closed-loop through one of four workloads, checks
// the outputs, and reports end-to-end metrics (tracing off) or a per-layer
// table (tracing on). See README.md for the definitions.
//
// The benchmark driver's protocol is one workload per process:
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Without --workload every workload
// runs, each run in a fresh child process, and -out collects a report that
// -compare and -rerun read back.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred profile writers finish
// before the process exits.
func run() int {
	var (
		workload   = flag.String("workload", "all", "workload `name`, or all (each run in a child process)")
		seed       = flag.Int64("seed", 1, "seed of every generated input: data, shards, initial model, masks")
		seconds    = flag.Float64("seconds", 20, "how long one run measures")
		traced     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer table from traced episodes")
		runs       = flag.Int("runs", 3, "with -workload all: timed runs per workload, on seeds seed, seed+1, ...")
		out        = flag.String("out", "", "write the JSON report to `file`")
		rerun      = flag.String("rerun", "", "take seed, seconds, runs and workload configs from an earlier `report`")
		compare    = flag.Bool("compare", false, "compare two reports: bench -compare a.json b.json")
		spans      = flag.String("spans", "", "with -trace 1: dump the last traced episode's spans to `file`")
		tmp        = flag.String("tmp", "", "`dir` for checkpoint directories (default: the system's)")
		cpuprofile = flag.String("cpuprofile", "", "write a cpu profile to `file` (single workload)")
		memprofile = flag.String("memprofile", "", "write a heap profile to `file` (single workload)")
		exectrace  = flag.String("exectrace", "", "write a runtime execution trace to `file` (single workload)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare a.json b.json")
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}

	specs := workloads
	if *rerun != "" {
		old, err := readReport(*rerun)
		if err != nil {
			fatal(2, err)
		}
		// The old report's values become the defaults; flags given
		// explicitly still win.
		given := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
		if !given["seed"] {
			*seed = old.Seed
		}
		if !given["seconds"] {
			*seconds = old.Seconds
		}
		if !given["runs"] {
			*runs = old.Runs
		}
		specs = nil
		for _, w := range old.Workloads {
			specs = append(specs, w.Config)
		}
	}

	// Two cores is what the sizes were probed on; more than four would only
	// add scheduler noise to a four-client cluster.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	if *workload == "all" {
		if *cpuprofile != "" || *memprofile != "" || *exectrace != "" || *spans != "" {
			fatal(2, "bench: profiles and -spans need a single -workload")
		}
		return runAll(specs, *seed, *seconds, *runs, *rerun, *tmp, *out)
	}

	var s spec
	for _, w := range specs {
		if w.Name == *workload {
			s = w
		}
	}
	if s.Name == "" {
		fatal(2, fmt.Sprintf("bench: unknown workload %q", *workload))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(2, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(2, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fatal(2, err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			fatal(2, err)
		}
		defer trace.Stop()
	}

	hdr := newHeader()
	fmt.Printf("# %s\n# workload %s  seed %d  seconds %g  trace %d\n", hdr, s.Name, *seed, *seconds, *traced)
	res, err := measure(s, *seed, *seconds, *traced == 1, *tmp)
	if err != nil {
		fatal(1, err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(2, err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(2, err)
		}
		f.Close()
	}
	if *spans != "" && res.Spans != nil {
		if err := writeJSON(*spans, res.Spans); err != nil {
			fatal(2, err)
		}
	}
	if *out != "" {
		rep := &report{Header: hdr, Seed: *seed, Seconds: *seconds, Runs: 1,
			Workloads: []*workloadReport{newWorkloadReport(s, res, *traced == 1)}}
		if err := writeJSON(*out, rep); err != nil {
			fatal(2, err)
		}
	}

	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	fmt.Printf("# %d episodes, %d measured rounds, final-model hashes %v\n", res.Episodes, res.Samples, res.Hashes)
	for _, note := range res.Notes {
		fmt.Printf("# INCORRECT: %s\n", note)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(code int, msg any) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(code)
}
