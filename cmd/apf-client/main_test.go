package main

import (
	"testing"
	"time"

	"apf/internal/flagdoc"
)

func TestClientRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad shard", []string{"-shard", "3", "-shards", "2"}},
		{"bad model", []string{"-model", "nope"}},
		{"bad scheme", []string{"-scheme", "nope", "-addr", "127.0.0.1:1"}},
		{"zero io timeout", []string{"-io-timeout", "0s", "-addr", "127.0.0.1:1"}},
		{"negative io timeout", []string{"-io-timeout", "-5s", "-addr", "127.0.0.1:1"}},
		{"bad log level", []string{"-log-level", "loud", "-addr", "127.0.0.1:1"}},
		{"bad log format", []string{"-log-format", "xml", "-addr", "127.0.0.1:1"}},
		{"bad metrics address", []string{"-metrics-addr", "256.256.256.256:99999", "-addr", "127.0.0.1:1"}},
		{"zero dirichlet", []string{"-dirichlet", "0", "-addr", "127.0.0.1:1", "-model", "mlp", "-shard", "0", "-shards", "1"}},
		{"negative dirichlet", []string{"-dirichlet", "-1", "-addr", "127.0.0.1:1", "-model", "mlp", "-shard", "0", "-shards", "1"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestClientFailsFastWithoutServer(t *testing.T) {
	start := time.Now()
	err := run([]string{"-addr", "127.0.0.1:1", "-model", "mlp", "-shard", "0", "-shards", "1"})
	if err == nil {
		t.Fatal("expected connection error")
	}
	if time.Since(start) > 15*time.Second {
		t.Error("client hung instead of failing fast")
	}
}

func TestClientVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

// TestReadmeFlagTable: every README flag-table row naming apf-client names a
// flag it registers.
func TestReadmeFlagTable(t *testing.T) {
	flagdoc.Check(t, "client", "../../README.md", run)
}
