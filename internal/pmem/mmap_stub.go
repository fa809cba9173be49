//go:build !linux

package pmem

import (
	"fmt"
	"os"
)

// File-backed heaps need mmap/msync; only the linux build wires them up.
// Everything else in the package (the in-process simulated heap) works
// everywhere.

var errMmapUnsupported = fmt.Errorf("pmem: file-backed heaps require linux")

func mmapFile(f *os.File, size int) ([]byte, error) { return nil, errMmapUnsupported }
func munmapFile(b []byte) error                     { return errMmapUnsupported }
func msyncRange(b []byte, async bool) error         { return errMmapUnsupported }
func wordsOf(b []byte) []uint64                     { return nil }

func dataExtent(f *os.File, off int64) (start, end int64, err error) {
	return 0, 0, errMmapUnsupported
}
