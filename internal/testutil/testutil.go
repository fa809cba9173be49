// Package testutil holds shared test fixtures: file-backed heaps (nearly
// every crashtest/kill/server test opens an mmap heap in a per-test temp dir,
// and often reopens the same file to act out a restart) and the test face of
// a structure's combining instances.
package testutil

import (
	"path/filepath"
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
)

// TempHeapPath returns a heap-file path inside a fresh per-test temp dir
// (the directory is removed automatically when the test ends).
func TempHeapPath(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "heap.pcomb")
}

// Instance is a combining instance as in-package structure tests reach it:
// core.Protocol plus the concrete methods both protocols have and no
// structure calls.
type Instance interface {
	core.Protocol
	Recover(tid int, op, a0, a1, seq uint64) uint64
	Ctx(tid int) *pmem.Ctx
}
