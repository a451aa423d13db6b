package main

import (
	"net"
	"testing"
	"time"

	"apf/internal/flagdoc"
)

// silentRoot listens like a root but never accepts: the kernel completes
// a relay's dial and buffers its join, so a relay that accepts its flags
// blocks on the Welcome instead of failing on the dial.
func silentRoot(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func TestRelayRejectsBadFlags(t *testing.T) {
	root := silentRoot(t)
	tests := []struct {
		name string
		args []string
	}{
		{"zero clients", []string{"-clients", "0"}},
		{"empty upstream", []string{"-upstream", ""}},
		{"bad address", []string{"-addr", "256.256.256.256:99999"}},
		{"zero io timeout", []string{"-io-timeout", "0s"}},
		{"bad codec", []string{"-codec", "zip"}},
		{"orphan cosine floor", []string{"-cosine-floor", "0.5"}},
		{"negative history rounds", []string{"-history-rounds", "-1"}},
		{"bad log level", []string{"-log-level", "loud"}},
		{"bad log format", []string{"-log-format", "xml"}},
		{"bad metrics address", []string{"-addr", "127.0.0.1:0", "-metrics-addr", "256.256.256.256:99999"}},
		{"zero snapshot interval", []string{"-addr", "127.0.0.1:0", "-upstream", root, "-snapshot-every", "0"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// A relay that accepts its flags joins the root and waits:
			// give up on it rather than hang the suite.
			errc := make(chan error, 1)
			go func() { errc <- run(tt.args) }()
			select {
			case err := <-errc:
				if err == nil {
					t.Error("expected error")
				}
			case <-time.After(10 * time.Second):
				t.Error("flags accepted: the relay is waiting on the root")
			}
		})
	}
}

func TestRelayVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

// TestReadmeFlagTable: every README flag-table row naming apf-relay names a
// flag it registers.
func TestReadmeFlagTable(t *testing.T) {
	flagdoc.Check(t, "relay", "../../README.md", run)
}
