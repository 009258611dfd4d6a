// Package obshttp enables bufir's optional HTTP observability
// endpoint: Prometheus-text /metrics, JSON /statusz, a /healthz probe
// and net/http/pprof under /debug/pprof/. Importing it — a blank import
// is enough — links the net/http implementation and registers it with
// the core library's server hook (metrics.RegisterHTTPServer in
// internal/metrics, which itself never imports net/http):
//
//	import (
//		"bufir"
//		_ "bufir/obshttp"
//	)
//
//	svc, err := bufir.Open("synth:default", bufir.WithEngine(bufir.EngineConfig{
//		Obs: bufir.ObsOptions{Addr: "127.0.0.1:9090"},
//	}))
//	// curl localhost:9090/metrics  -> Prometheus text format
//	// curl localhost:9090/statusz  -> full snapshot as JSON
//	// go tool pprof localhost:9090/debug/pprof/heap
//
// Open serves one endpoint per deployment (the router's aggregated
// snapshot when sharded, the engine's otherwise); Index.NewEngine with
// the same option serves that one engine's. Without this import,
// setting ObsOptions.Addr makes Open and NewEngine fail with
// bufir.ErrObsUnavailable, and — the point of the split — binaries
// that don't import it carry no net/http (or net/http/pprof) in their
// dependency graph at all. `make depgraph` enforces that.
//
// Security note: the endpoint is off by default (no listener without
// an explicit Addr) and carries no authentication — it exposes latency
// distributions, counters and full pprof (heap contents included).
// Bind it to localhost or a private interface; never a public one.
// All handlers are mounted on a private mux, so enabling it never
// touches http.DefaultServeMux (net/http/pprof's init does register
// there, which is exactly why this package stays out of the default
// build graph).
package obshttp

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"bufir/internal/metrics"
)

func init() {
	metrics.RegisterHTTPServer(func(addr string, src metrics.Source) (metrics.HTTPServer, error) {
		return newServer(addr, src)
	})
}

// server is a running observability endpoint over one metrics.Source.
type server struct {
	ln        net.Listener
	srv       *http.Server
	closeOnce sync.Once
	closeErr  error
}

// newServer binds addr (":0" picks a free port) and starts serving
// src's snapshots. The caller owns the returned server and must Close
// it.
func newServer(addr string, src metrics.Source) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &server{
		ln: ln,
		srv: &http.Server{
			Handler:           handler(src),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() {
		// ErrServerClosed (or a listener error after Close) is the
		// normal exit; the endpoint is best-effort by design and must
		// never take the serving engine down with it.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any in-flight handlers. Idempotent.
func (s *server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.srv.Close() })
	return s.closeErr
}

// handler returns the endpoint's route table on a private mux:
//
//	/metrics      Prometheus text format
//	/statusz      the full metrics.Snapshot as JSON
//	/healthz      200 "ok" (liveness)
//	/debug/pprof/ the standard pprof index and profiles
func handler(src metrics.Source) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, src.ObsSnapshot())
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(src.ObsSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
