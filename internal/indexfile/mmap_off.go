//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package indexfile

// Portable fallback: no memory mapping. PageFile serves every blob
// with ReadAt (pread) into a caller-supplied staging buffer. Selected
// automatically on platforms without syscall.Mmap.

import (
	"errors"
	"os"
)

const mmapSupported = false

func mmapFile(*os.File, int64) ([]byte, error) { return nil, errors.ErrUnsupported }

func munmapFile([]byte) error { return nil }
