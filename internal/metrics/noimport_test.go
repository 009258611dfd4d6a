package metrics_test

// This external test package pins the endpoint-enablement contract:
// its test binary imports the public bufir package but NOT
// bufir/obshttp (nor anything that registers the HTTP implementation,
// unlike the root package's test binary, whose bench_test.go pulls in
// internal/experiments). Configuring Obs.Addr in such a program must
// fail loudly with ErrObsUnavailable rather than silently serving
// nothing.

import (
	"errors"
	"testing"

	"bufir"
	"bufir/internal/metrics"
)

func TestStartHTTPServerUnregistered(t *testing.T) {
	if _, err := metrics.StartHTTPServer("127.0.0.1:0", nil); !errors.Is(err, metrics.ErrHTTPUnavailable) {
		t.Fatalf("StartHTTPServer without a registered factory: err = %v, want ErrHTTPUnavailable", err)
	}
}

func TestObsAddrWithoutImportFails(t *testing.T) {
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.NewEngine(bufir.EngineConfig{Obs: bufir.ObsOptions{Addr: "127.0.0.1:0"}})
	if !errors.Is(err, bufir.ErrObsUnavailable) {
		t.Fatalf("NewEngine with Obs.Addr but no obshttp import: err = %v, want ErrObsUnavailable", err)
	}
}
