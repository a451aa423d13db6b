package telemetry

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler builds the observability mux: Prometheus text metrics on
// /metrics, liveness + state on /healthz, and the standard runtime
// profiles under /debug/pprof/. The pprof handlers are mounted explicitly
// on this private mux — importing net/http/pprof for its side effect
// would pollute http.DefaultServeMux for every binary linking this
// package. health is polled on every /healthz request for alternating
// key/value pairs of live state (round, committed rounds, recovery
// status, ...), rendered as one JSON object alongside "status":"ok"; keep
// it cheap. It may be nil (the endpoint then reports only status).
func Handler(reg *Registry, health func() []any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		body := map[string]any{"status": "ok"}
		if health != nil {
			kv := health()
			for i := 0; i+1 < len(kv); i += 2 {
				if key, ok := kv[i].(string); ok {
					body[key] = kv[i+1]
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on addr and serves the observability handler until the
// listener is closed. It returns the bound listener (so callers using
// ":0" can learn the port) and never blocks; serve errors after Close are
// swallowed, earlier ones are passed to onErr if non-nil.
func Serve(addr string, h http.Handler, onErr func(error)) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	go func() {
		err := srv.Serve(ln)
		// Closing the listener is the intended shutdown; both sentinels
		// mean "stopped on purpose".
		if err != nil && err != http.ErrServerClosed && !errors.Is(err, net.ErrClosed) && onErr != nil {
			onErr(err)
		}
	}()
	return ln, nil
}
