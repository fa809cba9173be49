package fabric

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pcomb/internal/pmem"
)

// Writers hammer the counters of one shard — scalar Adds and transfers between
// them — while readers Get: a reader's successive Gets of a counter that only
// grows never go backwards, a Get after the thread's own Add returned v is at
// least v, and a Get started after any thread's Add returned v is at least v.
// The board is never involved in a Get, so flat and hierarchical behave alike.
func TestReadPathConcurrent(t *testing.T) {
	const writers, readers, per, nkeys = 2, 2, 300, 3
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			m := New(newHeap(), "m", writers+readers, v.opts)
			defer m.Close()
			var keys []uint64
			for k := uint64(1); len(keys) < nkeys+2; k++ {
				if m.ShardOf(k) == 0 {
					keys = append(keys, k)
				}
			}
			// The last two keys trade one unit back and forth: transaction
			// legs on the readers' shard, conserving their sum.
			a, b := keys[nkeys], keys[nkeys+1]
			m.Put(0, a, 1000)
			m.Put(0, b, 1000)
			var acked [nkeys]atomic.Uint64
			var done atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					defer done.Add(1)
					for i := 0; i < per; i++ {
						j := i % nkeys
						got := m.Add(tid, keys[j], 1)
						if seen, ok := m.Get(tid, keys[j]); !ok || seen < got {
							t.Errorf("thread %d Get = %d,%v after its own Add returned %d", tid, seen, ok, got)
							return
						}
						for old := acked[j].Load(); old < got && !acked[j].CompareAndSwap(old, got); old = acked[j].Load() {
						}
						if i%8 == 0 {
							m.TransferAdd(tid, a, b, 1)
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					var last [nkeys]uint64
					for i := 0; done.Load() < writers; i++ {
						j := i % nkeys
						floor := acked[j].Load()
						got, ok := m.Get(tid, keys[j])
						if floor > 0 && (!ok || got < floor) {
							t.Errorf("Get = %d,%v started after an Add had returned %d", got, ok, floor)
							return
						}
						if ok && got < last[j] {
							t.Errorf("successive Gets went backwards: %d then %d", last[j], got)
							return
						}
						if ok {
							last[j] = got
						}
						if n := m.Len(); n < 2 || n > nkeys+2 {
							t.Errorf("Len = %d with %d keys ever inserted", n, nkeys+2)
							return
						}
						runtime.Gosched() // four goroutines on what may be one core
					}
				}(writers + r)
			}
			wg.Wait()
			var sum uint64
			for _, key := range keys[:nkeys] {
				got, _ := m.Get(0, key)
				sum += got
			}
			if sum != writers*per {
				t.Fatalf("counters sum to %d, want %d", sum, writers*per)
			}
			va, _ := m.Get(1, a)
			vb, _ := m.Get(1, b)
			if va+vb != 2000 {
				t.Fatalf("transfer accounts hold %d + %d, want 2000 together", va, vb)
			}
		})
	}
}

// A Get issues no persistence instruction, leaves the thread's system-area
// record and counters as they were, posts on no board and allocates nothing.
func TestReadPathIssuesNothing(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			m := New(h, "m", 2, v.opts)
			defer m.Close()
			for key := uint64(1); key <= 40; key++ {
				m.Put(0, key, key*10)
			}
			m.Put(1, 41, 410) // thread 1's record now describes a Put
			sys := h.Region("m/fabric.sys")
			before := make([]uint64, sys.Len())
			sys.Snapshot(before, 0, len(before))
			stats := h.Stats()
			for i := uint64(0); i < 1000; i++ {
				key := i%60 + 1 // 41 present, 19 absent
				if got, ok := m.Get(1, key); ok != (key <= 41) || ok && got != key*10 {
					t.Fatalf("Get(%d) = %d,%v", key, got, ok)
				}
			}
			if got := h.Stats(); got != stats {
				t.Fatalf("1000 Gets moved the persistence counters from %+v to %+v", stats, got)
			}
			after := make([]uint64, sys.Len())
			sys.Snapshot(after, 0, len(after))
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("system-area word %d went from %#x to %#x", i, before[i], after[i])
				}
			}
			if n := testing.AllocsPerRun(200, func() { m.Get(1, 7); m.Get(1, 59) }); n != 0 {
				t.Fatalf("Get allocates %v objects", n)
			}
		})
	}
}

// After a crash the first Get returns the recovered value, and an update the
// crash interrupted becomes visible to Get once Recover has completed it.
func TestReadPathReopen(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			m := New(h, "m", 1, v.opts)
			m.Add(0, 5, 7)
			h.SetCrashAtEvent(2)
			func() {
				defer func() {
					if _, ok := recover().(pmem.CrashError); !ok {
						t.Fatal("no crash")
					}
				}()
				m.Add(0, 5, 1)
			}()
			m.Close()
			h.FinishCrash(pmem.DropUnfenced, 1)
			m = New(h, "m", 1, v.opts)
			defer m.Close()
			if got, ok := m.Get(0, 5); !ok || got != 7 {
				t.Fatalf("first Get after re-open = %d,%v; want 7", got, ok)
			}
			if rs := m.Recover(0); len(rs) != 1 || rs[0].Result != 8 {
				t.Fatalf("Recover = %+v", rs)
			}
			if got, ok := m.Get(0, 5); !ok || got != 8 {
				t.Fatalf("Get after recovery = %d,%v; want 8", got, ok)
			}
		})
	}
}
