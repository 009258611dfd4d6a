package livedex

import (
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// NewOverlay serves one commit's pages: a storage.Store over Pages(c),
// the same store a merge publishes. The main generation's metadata and
// store go unread; the benchmark module still passes them, and the
// parameters stay until it is unfrozen (ROADMAP 13(b)).
func NewOverlay(c *Combined, _ *postings.Index, _ storage.PageStore) *storage.Store {
	return storage.NewStore(Pages(c))
}
