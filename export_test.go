package bufir

import "bufir/internal/indexfile"

// OpenIndexFileReadAt is OpenIndexFile on the pread access path, never
// memory-mapped: the file-readat backend of the index conformance
// suite.
func OpenIndexFileReadAt(path string) (*Index, error) {
	return openIndexFile(path, indexfile.PageFileOptions{DisableMmap: true})
}
