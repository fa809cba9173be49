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

// TestServerCommandLedger pins what the server's commands cost in persistence
// instructions: one connection, no contention, a fresh count-mode store per
// case, and the pwbs, pfences and psyncs of 16 windows measured after 8
// warm-up ones. Every count is exact: the run is one goroutine and the keys
// are fixed, so the same lines are written back every time. LPUSH and RPOP
// cost no more than a SET although the queue's enqueue and dequeue records
// are 37 lines wide (17 threads' 16-word return-value blocks): a record wider
// than one line is line-tracked, so a round writes back the queue's state
// lines and the lines of the thread it served, not every thread's block.
func TestServerCommandLedger(t *testing.T) {
	type ledger struct{ pwbs, pfences, psyncs uint64 }
	cases := []struct {
		name string
		win  func(st *ServerStore, i uint64)
		want map[Kind]ledger // per 16 windows
	}{
		{"SET", func(st *ServerStore, i uint64) { st.Set(0, i%16+1, i) },
			map[Kind]ledger{Blocking: {90, 16, 16}, WaitFree: {122, 16, 16}}},
		{"INCRBY", func(st *ServerStore, i uint64) { st.IncrBy(0, 7, 1) },
			map[Kind]ledger{Blocking: {64, 16, 16}, WaitFree: {96, 16, 16}}},
		{"LPUSH", func(st *ServerStore, i uint64) { st.LPush(0, i) },
			map[Kind]ledger{Blocking: {68, 16, 16}, WaitFree: {104, 16, 16}}},
		{"RPOP", func(st *ServerStore, i uint64) { st.RPop(0) },
			map[Kind]ledger{Blocking: {48, 16, 16}, WaitFree: {80, 16, 16}}},
		{"SETx16", func(st *ServerStore, i uint64) {
			for k := uint64(1); k <= 16; k++ {
				st.Set(0, k, i)
			}
		}, map[Kind]ledger{Blocking: {304, 16, 16}, WaitFree: {336, 16, 16}}},
	}
	for _, kind := range []Kind{Blocking, WaitFree} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", map[Kind]string{Blocking: "PB", WaitFree: "PWF"}[kind], c.name), func(t *testing.T) {
				sys := New(Options{NoCost: true})
				st := NewServerStoreOn(sys.Heap(), ServerOptions{Kind: kind, QueueCapacity: 1 << 10})
				for i := uint64(0); i < 32; i++ {
					st.LPush(0, 1000+i) // RPOP's windows pop a value each
				}
				st.Flush(0)
				i := uint64(1)
				window := func() {
					c.win(st, i)
					st.Flush(0)
					i++
				}
				for range 8 {
					window()
				}
				before := sys.Stats()
				for range 16 {
					window()
				}
				after := sys.Stats()
				got := ledger{after.Pwbs - before.Pwbs, after.Pfences - before.Pfences, after.Psyncs - before.Psyncs}
				t.Logf("16 %s windows: %d pwbs, %d pfences, %d psyncs (%.2f pwbs per window)",
					c.name, got.pwbs, got.pfences, got.psyncs, float64(got.pwbs)/16)
				if got != c.want[kind] {
					t.Fatalf("16 %s windows cost %+v, want %+v", c.name, got, c.want[kind])
				}
			})
		}
	}
}
