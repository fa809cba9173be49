//go:build linux

package pcomb

import (
	"path/filepath"
	"syscall"
	"testing"
)

// TestServerStoreFileFollowsData: a new server file holds 64 MiB of capacity,
// most of it the queue's node arena, but creating the store and committing 100
// LPUSH windows allocates storage only for what those windows wrote, and a
// reopen serves the queue in order.
func TestServerStoreFileFollowsData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.pmem")
	st, _, err := OpenServerStore(ServerOptions{Path: path, Threads: 2, NoCost: true})
	if err != nil {
		t.Fatalf("OpenServerStore: %v", err)
	}
	for i := uint64(1); i <= 100; i++ {
		st.LPush(0, i)
		st.Flush(0)
	}
	var fst syscall.Stat_t
	if err := syscall.Stat(path, &fst); err != nil {
		t.Fatalf("stat: %v", err)
	}
	if got := fst.Blocks * 512; got >= 2<<20 {
		t.Fatalf("the store and 100 LPUSH windows allocate %d bytes, want under 2 MiB", got)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, restart, err := OpenServerStore(ServerOptions{Path: path, Threads: 2, NoCost: true})
	if err != nil || !restart {
		t.Fatalf("reopen: restart %v, %v", restart, err)
	}
	defer st.Close()
	q := st.Queue().Snapshot()
	if len(q) != 100 {
		t.Fatalf("reopened queue holds %d values, want 100", len(q))
	}
	for i, v := range q {
		if v != uint64(i+1) {
			t.Fatalf("reopened queue[%d] = %d, want %d", i, v, i+1)
		}
	}
}
