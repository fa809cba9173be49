package pcomb

import "testing"

// The public reads — Map.Get, ShardedMap.Get, Heap.GetMin — go through the
// system area's Read: 1 000 of each leave the persistence counters and the
// calling thread's system-area words as they were, allocate nothing, and a
// Recover after a crash reports no read. (The per-package ReadPath tests
// cover the layers below; this pins the forwards.)
func TestReadPathPublicForwards(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		name := "Blocking"
		if kind == WaitFree {
			name = "WaitFree"
		}
		t.Run(name, func(t *testing.T) {
			sys := New(Options{CrashTesting: true, NoCost: true})
			open := func() (*Map, *ShardedMap, *Heap) {
				return sys.NewMap("m", 2, kind), sys.NewShardedMap("f", 2, kind), sys.NewHeap("h", 2, kind, 32)
			}
			m, f, h := open()
			for k := uint64(1); k <= 20; k++ {
				m.Put(1, k, k+100)
				f.Put(1, k, k+200)
				h.Insert(1, 50-k)
			}
			reads := func() {
				if v, ok := m.Get(1, 7); !ok || v != 107 {
					t.Fatalf("Map.Get = %d,%v", v, ok)
				}
				if v, ok := f.Get(1, 7); !ok || v != 207 {
					t.Fatalf("ShardedMap.Get = %d,%v", v, ok)
				}
				if v, ok := h.GetMin(1); !ok || v != 30 {
					t.Fatalf("Heap.GetMin = %d,%v", v, ok)
				}
			}
			words := func() (out []uint64) {
				for _, region := range []string{"m/hashmap.sys", "f/fabric.sys", "h/sysarea"} {
					r := sys.Heap().Region(region)
					w := make([]uint64, r.Len())
					r.Snapshot(w, 0, len(w))
					out = append(out, w...)
				}
				return out
			}
			before, stats := words(), sys.Stats()
			for i := 0; i < 1000; i++ {
				reads()
			}
			if sys.Stats() != stats {
				t.Fatalf("reads moved the persistence counters from %+v to %+v", stats, sys.Stats())
			}
			for i, w := range words() {
				if w != before[i] {
					t.Fatalf("system-area word %d went from %#x to %#x", i, before[i], w)
				}
			}
			if n := testing.AllocsPerRun(100, reads); n != 0 {
				t.Fatalf("the three reads allocate %v objects", n)
			}
			f.Close()
			sys.Crash(DropUnfenced, 1)
			m, f, h = open()
			defer f.Close()
			for tid := 0; tid < 2; tid++ {
				if n := len(m.Recover(tid)) + len(f.Recover(tid)) + len(h.Recover(tid)); n != 0 {
					t.Fatalf("Recover reported %d operations for thread %d; nothing was in flight", n, tid)
				}
			}
			reads()
		})
	}
}
