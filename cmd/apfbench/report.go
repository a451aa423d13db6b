package main

import (
	"encoding/json"
	"os"
	"runtime"
)

// reportHeader opens every report whose numbers depend on the machine
// that cut it (BENCH_scale.json, BENCH_resume.json). The scenario report
// is byte-deterministic per seed and deliberately carries no such header.
type reportHeader struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note"`
}

// newReportHeader stamps the running toolchain and parallelism.
func newReportHeader(note string) reportHeader {
	return reportHeader{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Note: note}
}

// writeReport fills rep with measure and writes it to path as indented
// JSON. The file is created first, so an unwritable path fails before
// minutes are spent measuring. Gates are the caller's business and run
// after the write, so a violating run still leaves its report behind.
func writeReport[T any](path string, rep *T, measure func(*T) error) error {
	probe, err := os.Create(path)
	if err != nil {
		return err
	}
	probe.Close()
	if err := measure(rep); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
