package bufir

import (
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
)

// OpenIndexFileReadAt is OpenIndexFile on the pread access path, never
// memory-mapped: the file-readat backend of the index conformance
// suite.
func OpenIndexFileReadAt(path string) (*Index, error) {
	return openIndexFile(path, indexfile.PageFileOptions{DisableMmap: true})
}

// newRetryingSession is NewSession over a pool whose failed page loads
// retry under fault, the pool an Engine builds for EngineConfig.Fault:
// the ingestion-exactness harness rides transient faults out with it.
func (ix *Index) newRetryingSession(cfg SessionConfig, fault FaultToleranceOptions) (*Session, error) {
	rc, err := resolveConfig(cfg.EvalOptions, cfg.Policy, cfg.BufferPages, LRU, eval.PaperParams())
	if err != nil {
		return nil, err
	}
	user, err := engine.NewUser(&poolSource{ix: ix, rc: rc, shards: 1, fault: fault}, 0, rc.params)
	if err != nil {
		return nil, err
	}
	return &Session{ix: ix, algo: cfg.Algorithm, user: user}, nil
}
