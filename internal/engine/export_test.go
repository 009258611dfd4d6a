package engine

// SetRefineCacheEntries replaces a refine-enabled engine's result cache
// with an empty one bounded at n entries, so a test can reach the LRU
// bound without filling the production-sized cache. Call it before
// the engine's first request.
func SetRefineCacheEntries(e *Engine, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.refine = newRefineCache(n)
}
