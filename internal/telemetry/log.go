package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
)

// ParseLevel maps a flag value to a slog level; unknown names are an error
// so binaries can reject bad -log-level the way they reject bad -io-timeout.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("invalid log level %q (want debug, info, warn, or error)", s)
}

// NewLogger builds a logger writing events at or above level to w, one
// line per event: key=value pairs for format "text", a JSON object for
// "json". Any other format is an error.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("invalid log format %q (want text or json)", format)
}

// silent enables no level, so its events are dropped at the level check,
// before a record is built or anything formatted.
var silent = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// With returns l with args attached to every event. A nil l yields the
// silent logger, so a component handed no logger logs unconditionally
// and stays quiet.
func With(l *slog.Logger, args ...any) *slog.Logger {
	if l == nil {
		return silent
	}
	return l.With(args...)
}
