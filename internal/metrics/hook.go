package metrics

import (
	"errors"
	"sync/atomic"
)

// ErrHTTPUnavailable is returned by StartHTTPServer when no server
// implementation has been registered — i.e. the binary was built
// without importing bufir/obshttp. The split exists so that the
// default dependency graph of the library carries no HTTP listener
// and no net/http/pprof (whose import registers debug handlers on
// http.DefaultServeMux as a side effect).
var ErrHTTPUnavailable = errors.New(
	"obs: HTTP endpoint unavailable: import bufir/obshttp to enable it")

// HTTPServer is a running observability endpoint.
type HTTPServer interface {
	// Addr returns the bound listen address (useful with ":0").
	Addr() string
	// Close stops the listener. Idempotent.
	Close() error
}

// ServerFactory builds and starts an HTTP endpoint serving src's
// snapshots on addr.
type ServerFactory func(addr string, src Source) (HTTPServer, error)

var httpFactory atomic.Pointer[ServerFactory]

// RegisterHTTPServer installs the endpoint implementation. Called from
// bufir/obshttp's init; last registration wins.
func RegisterHTTPServer(f ServerFactory) {
	if f == nil {
		return
	}
	httpFactory.Store(&f)
}

// StartHTTPServer starts an endpoint through the registered factory,
// or fails with ErrHTTPUnavailable when none is registered.
func StartHTTPServer(addr string, src Source) (HTTPServer, error) {
	f := httpFactory.Load()
	if f == nil {
		return nil, ErrHTTPUnavailable
	}
	return (*f)(addr, src)
}
