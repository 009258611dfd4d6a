package bufir

import (
	"errors"

	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/metrics"
)

// Sentinel errors of the public API, testable with errors.Is. Error
// messages elsewhere in the package wrap these (sometimes with a
// site-specific hint), so matching on errors.Is is always safe where
// matching on message text never was.
var (
	// ErrEngineClosed is returned by Engine.SubmitContext and
	// SearchContext once Close or Shutdown has begun.
	ErrEngineClosed = engine.ErrEngineClosed
	// ErrQueueFull is returned by Engine.SubmitContext and
	// SearchContext when EngineConfig.MaxQueue is set and the admission queue is at
	// capacity: the request was shed, not queued.
	ErrQueueFull = engine.ErrQueueFull
	// ErrEmptyQuery is returned when a query has no terms (or only
	// non-positive query frequencies).
	ErrEmptyQuery = eval.ErrEmptyQuery
	// ErrNoPositional is returned by phrase queries on an index built
	// without IndexOptions.Positional.
	ErrNoPositional = errors.New("bufir: index was built without positional data")
	// ErrUnknownPolicy is returned for a Policy name other than LRU,
	// MRU and RAP.
	ErrUnknownPolicy = errors.New("bufir: unknown policy")
	// ErrObsUnavailable is returned by NewEngine and Open when
	// ObsOptions.Addr is set but no HTTP endpoint implementation is
	// linked in. Import bufir/obshttp (blank import is enough) to
	// enable it; the core library deliberately does not depend on
	// net/http.
	ErrObsUnavailable = metrics.ErrHTTPUnavailable
)

// hintedErr carries a site-specific message while unwrapping to a
// sentinel, so errors.Is matches without the message text changing.
type hintedErr struct {
	msg  string
	base error
}

func (e *hintedErr) Error() string { return e.msg }
func (e *hintedErr) Unwrap() error { return e.base }
