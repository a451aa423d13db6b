package main

import (
	"testing"
	"time"

	"apf/internal/flagdoc"
)

func TestServerRejectsBadFlags(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"bad model", []string{"-model", "nope"}},
		{"zero clients", []string{"-clients", "0"}},
		{"bad address", []string{"-addr", "256.256.256.256:99999"}},
		{"zero io timeout", []string{"-io-timeout", "0s"}},
		{"negative io timeout", []string{"-io-timeout", "-5s"}},
		{"negative history rounds", []string{"-history-rounds", "-1"}},
		{"bad log level", []string{"-log-level", "loud"}},
		{"bad log format", []string{"-log-format", "xml"}},
		{"bad metrics address", []string{"-addr", "127.0.0.1:0", "-metrics-addr", "256.256.256.256:99999"}},
		{"negative trim fraction", []string{"-addr", "127.0.0.1:0", "-trim-frac", "-0.1"}},
		{"trim fraction of one half", []string{"-addr", "127.0.0.1:0", "-trim-frac", "0.5"}},
		{"zero snapshot interval", []string{"-addr", "127.0.0.1:0", "-snapshot-every", "0"}},
		{"negative snapshot interval", []string{"-addr", "127.0.0.1:0", "-snapshot-every", "-3"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// A server that accepts its flags binds and waits for clients:
			// give up on it rather than hang the suite.
			errc := make(chan error, 1)
			go func() { errc <- run(tt.args) }()
			select {
			case err := <-errc:
				if err == nil {
					t.Error("expected error")
				}
			case <-time.After(10 * time.Second):
				t.Error("flags accepted: the server is waiting for clients")
			}
		})
	}
}

func TestServerVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

func TestServerRootTierFlagGuards(t *testing.T) {
	// The root tier never sees per-client payloads: the trimmed reduction
	// and inbound sanitization must be refused up front.
	if err := run([]string{"-addr", "127.0.0.1:0", "-relays", "2", "-trim-frac", "0.25"}); err == nil {
		t.Error("-relays with -trim-frac 0.25 was accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-relays", "2", "-max-norm-mult", "4"}); err == nil {
		t.Error("-relays with sanitization armed was accepted")
	}
}

// TestReadmeFlagTable: every README flag-table row naming apf-server names a
// flag it registers.
func TestReadmeFlagTable(t *testing.T) {
	flagdoc.Check(t, "server", "../../README.md", run)
}
