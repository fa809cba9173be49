// Package testutil holds the shared test fixture for file-backed heaps:
// nearly every crashtest/kill/server test opens an mmap heap in a per-test
// temp dir, registers its close, and often reopens the same file to act
// out a restart. Centralizing the setup keeps the open/cleanup/reopen
// discipline identical across packages.
package testutil

import (
	"path/filepath"
	"testing"

	"pcomb/internal/pmem"
)

// TempHeapPath returns a heap-file path inside a fresh per-test temp dir
// (the directory is removed automatically when the test ends).
func TempHeapPath(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "heap.pcomb")
}

// ReopenHeap opens (or, on a later call with the same path, re-attaches)
// the heap file at path with NoCost persistence, failing the test on any
// open error and registering the close.
func ReopenHeap(t testing.TB, path string, opts pmem.FileOpts) *pmem.Heap {
	t.Helper()
	opts.Cfg.NoCost = true
	h, _, err := pmem.OpenFile(path, opts)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}
