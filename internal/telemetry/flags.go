package telemetry

import (
	"flag"
	"fmt"
	"os"
)

// Flags are the observability flags every daemon (apf-server, apf-relay,
// apf-client) accepts — -metrics-addr, -log-level, -log-format, -version —
// bound, validated and acted on in one place. After Resolve, Log is the
// process logger and Metrics the registry to instrument with.
type Flags struct {
	// Log writes to stderr at the requested level and format.
	Log *Logger
	// Metrics only exists when something serves it: with -metrics-addr
	// unset it is nil and every instrumented path degrades to the
	// registry's nil-safe no-ops.
	Metrics *Registry

	prog        string
	metricsAddr *string
	logLevel    *string
	logFormat   *string
	version     *bool
}

// BindFlags declares the observability flags on fs, whose name is the
// program name used in the -version line and the endpoint notice.
func BindFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		prog:        fs.Name(),
		metricsAddr: fs.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty = disabled)"),
		logLevel:    fs.String("log-level", "warn", "log verbosity: debug | info | warn | error"),
		logFormat:   fs.String("log-format", "text", "log output format: text | json"),
		version:     fs.Bool("version", false, "print build information and exit"),
	}
}

// PrintVersion prints the build information when -version was given and
// reports whether it did; the caller then exits without running.
func (f *Flags) PrintVersion() bool {
	if *f.version {
		fmt.Println(f.prog, ReadBuildInfo().String())
	}
	return *f.version
}

// Resolve validates the parsed flags and builds Log and Metrics.
func (f *Flags) Resolve() error {
	level, err := ParseLevel(*f.logLevel)
	if err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	format, err := ParseFormat(*f.logFormat)
	if err != nil {
		return fmt.Errorf("-log-format: %w", err)
	}
	f.Log = NewLogger(os.Stderr, level, format)
	if *f.metricsAddr != "" {
		f.Metrics = New()
		RegisterBuildInfo(f.Metrics)
	}
	return nil
}

// Serve starts the observability endpoint on -metrics-addr with health
// behind /healthz and returns the function that stops it; with the flag
// unset it starts nothing and the stop function is a no-op.
func (f *Flags) Serve(health HealthFunc) (stop func(), err error) {
	if *f.metricsAddr == "" {
		return func() {}, nil
	}
	ln, err := Serve(*f.metricsAddr, Handler(f.Metrics, health), func(err error) {
		f.Log.Error("observability endpoint failed", "err", err)
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: observability on http://%s/metrics\n", f.prog, ln.Addr())
	return func() { ln.Close() }, nil
}
