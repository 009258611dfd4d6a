//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package indexfile

// Memory mapping of the paged index file. A read-only, shared mapping
// lets PageBlob hand out zero-copy views of the page blobs: the first
// touch of a page costs a real page fault and disk read, a warm touch
// costs nothing — exactly the cost shape the paper's buffer-miss
// model wants to be validated against. OpenPageFile's DisableMmap
// option forces the portable pread path instead.

import (
	"fmt"
	"os"
	"syscall"
)

const mmapSupported = true

// mmapFile maps the whole file read-only.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("indexfile: cannot map %d-byte file", size)
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("indexfile: file size %d exceeds the address space", size)
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping created by mmapFile.
func munmapFile(b []byte) error { return syscall.Munmap(b) }
