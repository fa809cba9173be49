package pcomb

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestStoreEpochPrefix is the one-epoch litmus: one connection commits a map
// window and a queue window in program order, then an epoch closes through
// one of the two structures, and the process dies. Whatever survives must be
// a prefix of that program order: if the later window came back, the earlier
// one did too. Two structures with an epoch each fail it whichever one closes.
func TestStoreEpochPrefix(t *testing.T) {
	set := func(st *ServerStore) { st.Set(0, 7, 1); st.Flush(0) }
	push := func(st *ServerStore) { st.LPush(0, 2); st.Flush(0) }
	hasSet := func(st *ServerStore) bool { v, ok := st.Map().Get(0, 7); return ok && v == 1 }
	hasPush := func(st *ServerStore) bool { q := st.Queue().Snapshot(); return len(q) == 1 && q[0] == 2 }
	orders := []struct {
		name          string
		first, second func(*ServerStore)
		firstSurvived func(*ServerStore) bool
		secondSurvive func(*ServerStore) bool
		close         func(*ServerStore)
	}{
		{"A/set-push-queueSync", set, push, hasSet, hasPush, func(st *ServerStore) { st.Queue().Sync() }},
		{"B/push-set-mapSync", push, set, hasPush, hasSet, func(st *ServerStore) { st.Map().Sync() }},
	}
	for _, kind := range []Kind{Blocking, WaitFree} {
		for _, o := range orders {
			t.Run(fmt.Sprintf("%s/%s", map[Kind]string{Blocking: "PB", WaitFree: "PWF"}[kind], o.name), func(t *testing.T) {
				sys := New(Options{CrashTesting: true, NoCost: true})
				opts := ServerOptions{Threads: 1, Kind: kind, FlushOps: 4, Epoch: true, QueueCapacity: 1 << 10}
				st := NewServerStoreOn(sys.Heap(), opts)
				o.first(st)
				o.second(st)
				o.close(st)
				sys.Crash(DropUnfenced, 1)

				st = NewServerStoreOn(sys.Heap(), opts)
				st.Recover()
				first, second := o.firstSurvived(st), o.secondSurvive(st)
				if second && !first {
					t.Fatalf("the later window survived the crash and the earlier one did not (map %v, queue %v)",
						hasSet(st), st.Queue().Snapshot())
				}
				if !second {
					t.Fatalf("the epoch close did not make the later window durable")
				}
			})
		}
	}
}

// TestStoreOneCloser: an epoch-mode store with a close cadence starts exactly
// one goroutine, the closer of its one epoch, and Close stops it.
func TestStoreOneCloser(t *testing.T) {
	sys := New(Options{NoCost: true})
	before := runtime.NumGoroutine()
	st := NewServerStoreOn(sys.Heap(), ServerOptions{Threads: 2, Epoch: true, EpochInterval: time.Hour, QueueCapacity: 1 << 10})
	if n := runtime.NumGoroutine() - before; n != 1 {
		t.Fatalf("the store started %d goroutines, want one epoch closer", n)
	}
	st.Close()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after Close", runtime.NumGoroutine()-before)
		}
	}
}
