package main

import (
	"testing"
)

func TestRelayRejectsBadFlags(t *testing.T) {
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
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestRelayVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("-version: %v", err)
	}
}
