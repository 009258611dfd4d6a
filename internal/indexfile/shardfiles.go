package indexfile

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// ShardFileName returns the canonical file name of partition i of an
// n-way document-partitioned index: "shard-0003-of-0008.bufir". The
// fixed-width numbering keeps a directory listing in partition order.
func ShardFileName(i, n int) string {
	return fmt.Sprintf("shard-%04d-of-%04d.bufir", i, n)
}

// ShardFiles lists the shard files of a partitioned index directory in
// partition order, validating that the set is complete and consistent:
// every file present declares the same partition count n, and all n
// partitions are present exactly once.
func ShardFiles(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "shard-*-of-*.bufir"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("indexfile: no shard files in %s", dir)
	}
	sort.Strings(matches)
	var total int
	seen := make(map[int]bool)
	for _, m := range matches {
		var i, n int
		base := filepath.Base(m)
		if _, err := fmt.Sscanf(strings.TrimSuffix(base, ".bufir"), "shard-%d-of-%d", &i, &n); err != nil {
			return nil, fmt.Errorf("indexfile: bad shard file name %q", base)
		}
		if total == 0 {
			total = n
		} else if n != total {
			return nil, fmt.Errorf("indexfile: mixed partition counts in %s (%d and %d)", dir, total, n)
		}
		if i < 0 || i >= n || seen[i] {
			return nil, fmt.Errorf("indexfile: bad or duplicate partition %d of %d in %s", i, n, dir)
		}
		seen[i] = true
	}
	if len(matches) != total {
		return nil, fmt.Errorf("indexfile: %s holds %d of %d partitions", dir, len(matches), total)
	}
	return matches, nil
}
