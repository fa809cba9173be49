// Package testutil holds the shared test fixture for file-backed heaps:
// nearly every crashtest/kill/server test opens an mmap heap in a per-test
// temp dir, and often reopens the same file to act out a restart.
package testutil

import (
	"path/filepath"
	"testing"
)

// TempHeapPath returns a heap-file path inside a fresh per-test temp dir
// (the directory is removed automatically when the test ends).
func TempHeapPath(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "heap.pcomb")
}
