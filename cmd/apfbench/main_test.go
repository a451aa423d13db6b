package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list failed: %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"no experiment", nil},
		{"unknown experiment", []string{"-exp", "fig99"}},
		{"unknown scale", []string{"-exp", "fig2", "-scale", "huge"}},
		{"unknown scenario matrix", []string{"-scenarios", "out.json", "-matrix", "bogus"}},
		// The isolated-timing modes are retired (EXPERIMENTS.md); bench/ times
		// those paths in situ.
		{"retired hotpath mode", []string{"-hotpath", "out.json"}},
		{"retired wire mode", []string{"-wire", "out.json"}},
		{"retired telemetry mode", []string{"-telemetry", "out.json"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRunExperimentWithTSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (seconds-long) experiment")
	}
	dir := t.TempDir()
	// fig2 is the cheapest figure-producing experiment.
	if err := run([]string{"-exp", "fig2", "-tsv", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no TSV files written")
	}
	content, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(content)), "\n")
	if len(lines) < 2 || !strings.Contains(lines[0], "\t") {
		t.Errorf("TSV malformed:\n%s", string(content))
	}
}
