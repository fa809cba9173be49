package hashmap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pcomb/internal/pmem"
)

// shardKeys returns n keys that all live on one shard of m.
func shardKeys(m *Map, n int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < n; k++ {
		if m.ShardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// Writers hammer the counters of one shard while readers Get them: a reader's
// successive Gets of a key never go backwards, a Get after the thread's own
// Add returned v is at least v, and a Get started after any thread's Add
// returned v is at least v. Len runs beside them through the same path.
func TestReadPathConcurrent(t *testing.T) {
	const writers, readers, per, nkeys = 2, 2, 300, 3
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			m := newMap(newHeap(), "m", writers+readers, k.kind, 2, 64)
			keys := shardKeys(m, nkeys)
			var acked [nkeys]atomic.Uint64 // the largest value an Add of the key has returned
			var done atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					defer done.Add(1)
					for i := 0; i < per; i++ {
						j := i % nkeys
						v := m.Add(tid, keys[j], 1)
						if got, ok := m.Get(tid, keys[j]); !ok || got < v {
							t.Errorf("thread %d Get = %d,%v after its own Add returned %d", tid, got, ok, v)
							return
						}
						for old := acked[j].Load(); old < v && !acked[j].CompareAndSwap(old, v); old = acked[j].Load() {
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					var last [nkeys]uint64
					lastLen := 0
					for i := 0; done.Load() < writers; i++ {
						j := i % nkeys
						floor := acked[j].Load()
						v, ok := m.Get(tid, keys[j])
						if floor > 0 && (!ok || v < floor) {
							t.Errorf("Get = %d,%v started after an Add had returned %d", v, ok, floor)
							return
						}
						if ok && v < last[j] {
							t.Errorf("successive Gets went backwards: %d then %d", last[j], v)
							return
						}
						if ok {
							last[j] = v
						}
						if n := m.Len(); n < lastLen || n > nkeys {
							t.Errorf("Len = %d after %d with %d keys ever inserted", n, lastLen, nkeys)
							return
						} else {
							lastLen = n
						}
						runtime.Gosched() // four goroutines on what may be one core
					}
				}(writers + r)
			}
			wg.Wait()
			var sum uint64
			for _, key := range keys {
				v, _ := m.Get(0, key)
				sum += v
			}
			if sum != writers*per {
				t.Fatalf("counters sum to %d, want %d", sum, writers*per)
			}
		})
	}
}

// A Get issues no persistence instruction, leaves the thread's system-area
// record and counters as they were, and allocates nothing — hit or miss.
func TestReadPathIssuesNothing(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			h := newHeap()
			m := newMap(h, "m", 2, k.kind, 4, 256)
			for key := uint64(1); key <= 40; key++ {
				m.Put(0, key, key*10)
			}
			m.Put(1, 41, 410) // thread 1's record now describes a Put
			sys := h.Region("m/hashmap.sys")
			before := make([]uint64, sys.Len())
			sys.Snapshot(before, 0, len(before))
			stats := h.Stats()
			for i := uint64(0); i < 1000; i++ {
				key := i%60 + 1 // 41 present, 19 absent
				if v, ok := m.Get(1, key); ok != (key <= 41) || ok && v != key*10 {
					t.Fatalf("Get(%d) = %d,%v", key, v, ok)
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

// After a crash the first Get returns the recovered value: the durable index
// is re-seeded at re-open, and an update the crash interrupted becomes visible
// to Get once Recover has completed it.
func TestReadPathReopen(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			h := newHeap()
			m := newMap(h, "m", 1, k.kind, 2, 64)
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
			h.FinishCrash(pmem.DropUnfenced, 1)
			m = newMap(h, "m", 1, k.kind, 2, 64)
			if v, ok := m.Get(0, 5); !ok || v != 7 {
				t.Fatalf("first Get after re-open = %d,%v; want 7", v, ok)
			}
			if rs := m.Recover(0); len(rs) != 1 || rs[0].Result != 8 {
				t.Fatalf("Recover = %+v", rs)
			}
			if v, ok := m.Get(0, 5); !ok || v != 8 {
				t.Fatalf("Get after recovery = %d,%v; want 8", v, ok)
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d", m.Len())
			}
		})
	}
}
