package hashmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
)

// newMap builds a map with shards combining instances sharing capacity slots.
func newMap(h *pmem.Heap, name string, n int, kind Kind, shards, capacity int) *Map {
	return NewWith(h, name, n, kind, Options{Shards: shards, Capacity: capacity})
}

func newHeap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
}

func kinds() []struct {
	name string
	kind Kind
} {
	return []struct {
		name string
		kind Kind
	}{{"PBmap", Blocking}, {"PWFmap", WaitFree}}
}

func TestPutGetDelete(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			h := newHeap()
			m := newMap(h, "m", 1, k.kind, 4, 256)
			if _, ok := m.Get(0, 7); ok {
				t.Fatal("get of absent key")
			}
			if prev, existed := m.Put(0, 7, 70); existed || prev != NotFound {
				t.Fatalf("fresh put = %d,%v", prev, existed)
			}
			if v, ok := m.Get(0, 7); !ok || v != 70 {
				t.Fatalf("get = %d,%v", v, ok)
			}
			if prev, existed := m.Put(0, 7, 71); !existed || prev != 70 {
				t.Fatalf("overwrite = %d,%v", prev, existed)
			}
			if v, ok := m.Delete(0, 7); !ok || v != 71 {
				t.Fatalf("delete = %d,%v", v, ok)
			}
			if _, ok := m.Get(0, 7); ok {
				t.Fatal("get after delete")
			}
			if m.Len() != 0 {
				t.Fatalf("len = %d", m.Len())
			}
		})
	}
}

func TestQuickOracle(t *testing.T) {
	// Property: the map behaves exactly like Go's built-in map under a
	// random single-threaded op sequence.
	f := func(ops []uint16) bool {
		h := newHeap()
		m := newMap(h, "m", 1, Blocking, 4, 1024)
		oracle := map[uint64]uint64{}
		for _, o := range ops {
			key := uint64(o%97) + 1
			val := uint64(o)
			switch o % 3 {
			case 0:
				prev, existed := m.Put(0, key, val)
				want, wantEx := oracle[key]
				if existed != wantEx || (existed && prev != want) {
					return false
				}
				oracle[key] = val
			case 1:
				got, ok := m.Get(0, key)
				want, wantOk := oracle[key]
				if ok != wantOk || (ok && got != want) {
					return false
				}
			case 2:
				got, ok := m.Delete(0, key)
				want, wantOk := oracle[key]
				if ok != wantOk || (ok && got != want) {
					return false
				}
				delete(oracle, key)
			}
		}
		if m.Len() != len(oracle) {
			return false
		}
		seen := 0
		bad := false
		m.Range(func(k, v uint64) bool {
			seen++
			if w, ok := oracle[k]; !ok || w != v {
				bad = true
				return false
			}
			return true
		})
		return !bad && seen == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

func TestTombstoneProbeChain(t *testing.T) {
	// Deleting a key in the middle of a probe chain must not break lookups
	// of keys that probed past it, and reinsertion reuses the tombstone.
	h := newHeap()
	m := newMap(h, "m", 1, Blocking, 1, 8) // one shard, 8 slots: collisions certain
	keys := []uint64{1, 2, 3, 4, 5, 6}
	for i, k := range keys {
		if prev, _ := m.Put(0, k, uint64(i)+100); prev == Full {
			t.Fatal("unexpected full")
		}
	}
	m.Delete(0, keys[2])
	for i, k := range keys {
		if k == keys[2] {
			continue
		}
		if v, ok := m.Get(0, k); !ok || v != uint64(i)+100 {
			t.Fatalf("key %d lost after unrelated delete", k)
		}
	}
	if prev, existed := m.Put(0, keys[2], 42); existed || prev != NotFound {
		t.Fatalf("reinsert = %d,%v", prev, existed)
	}
	if v, ok := m.Get(0, keys[2]); !ok || v != 42 {
		t.Fatalf("reinserted get = %d,%v", v, ok)
	}
}

func TestShardFull(t *testing.T) {
	h := newHeap()
	m := newMap(h, "m", 1, Blocking, 1, 4)
	inserted := 0
	for k := uint64(1); k <= 16; k++ {
		if prev, _ := m.Put(0, k, k); prev != Full {
			inserted++
		}
	}
	if inserted != 4 {
		t.Fatalf("inserted %d into a 4-slot shard", inserted)
	}
}

func TestInvalidKeys(t *testing.T) {
	h := newHeap()
	m := newMap(h, "m", 1, Blocking, 2, 64)
	if prev, existed := m.Put(0, 0, 1); existed || prev != NotFound {
		t.Fatal("key 0 must be rejected quietly")
	}
	if _, ok := m.Get(0, 0); ok {
		t.Fatal("key 0 must never be found")
	}
	if _, ok := m.Get(0, ^uint64(0)); ok {
		t.Fatal("sentinel keys must never be found")
	}
}

func TestConcurrentDisjointKeys(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			const n, per = 8, 150
			h := newHeap()
			m := newMap(h, "m", n, k.kind, 8, n*per*2)
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						key := uint64(tid)<<32 | uint64(i) + 1
						if prev, _ := m.Put(tid, key, key*2); prev == Full {
							t.Errorf("map full")
							return
						}
					}
				}(tid)
			}
			wg.Wait()
			if m.Len() != n*per {
				t.Fatalf("len = %d, want %d", m.Len(), n*per)
			}
			for tid := 0; tid < n; tid++ {
				for i := 0; i < per; i++ {
					key := uint64(tid)<<32 | uint64(i) + 1
					if v, ok := m.Get(0, key); !ok || v != key*2 {
						t.Fatalf("key %x = %d,%v", key, v, ok)
					}
				}
			}
		})
	}
}

func TestConcurrentSameKeyLastWriteWins(t *testing.T) {
	const n, per = 6, 200
	h := newHeap()
	m := newMap(h, "m", n, Blocking, 4, 256)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Put(tid, 42, uint64(tid)<<32|uint64(i))
			}
		}(tid)
	}
	wg.Wait()
	v, ok := m.Get(0, 42)
	if !ok {
		t.Fatal("key lost")
	}
	// The final value must be SOME thread's last-ish write; at minimum it
	// must be a value that was actually written.
	if v>>32 >= n || v&0xffffffff >= per {
		t.Fatalf("phantom value %x", v)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestDurabilityAfterCrash(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			h := newHeap()
			m := newMap(h, "m", 2, k.kind, 4, 256)
			for key := uint64(1); key <= 30; key++ {
				m.Put(0, key, key*10)
			}
			m.Delete(0, 7)
			h.Crash(pmem.DropUnfenced, 1)
			m2 := newMap(h, "m", 2, k.kind, 4, 256)
			for tid := 0; tid < 2; tid++ {
				if m2.Recover(tid) != nil {
					t.Fatalf("tid %d: nothing was in flight", tid)
				}
			}
			if m2.Len() != 29 {
				t.Fatalf("recovered len = %d, want 29", m2.Len())
			}
			for key := uint64(1); key <= 30; key++ {
				v, ok := m2.Get(0, key)
				if key == 7 {
					if ok {
						t.Fatal("deleted key resurrected")
					}
					continue
				}
				if !ok || v != key*10 {
					t.Fatalf("key %d = %d,%v", key, v, ok)
				}
			}
		})
	}
}

func TestCrashPointSweepPut(t *testing.T) {
	// Crash at every persistence event inside a Put and verify exactly-once
	// semantics via Recover.
	for kk := int64(1); ; kk++ {
		h := newHeap()
		m := newMap(h, "m", 1, Blocking, 2, 64)
		m.Put(0, 5, 50)
		sh := m.shardOf(9)
		ctx := m.shards[sh].Ctx(0)
		ctx.SetCrashAt(kk)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			m.Put(0, 9, 90)
		}()
		if !crashed {
			return
		}
		h.Crash(pmem.DropUnfenced, kk)
		m2 := newMap(h, "m", 1, Blocking, 2, 64)
		if rs := m2.Recover(0); len(rs) != 1 || rs[0].Op != OpPut || rs[0].A0 != 9 {
			t.Fatalf("crash@%d: Recover = %+v, want the Put of key 9", kk, rs)
		}
		if v, ok := m2.Get(0, 9); !ok || v != 90 {
			t.Fatalf("crash@%d: key 9 = %d,%v", kk, v, ok)
		}
		if v, ok := m2.Get(0, 5); !ok || v != 50 {
			t.Fatalf("crash@%d: key 5 = %d,%v", kk, v, ok)
		}
		if m2.Len() != 2 {
			t.Fatalf("crash@%d: len = %d (exactly-once violated)", kk, m2.Len())
		}
	}
}

func TestShardingDistributesLoad(t *testing.T) {
	h := newHeap()
	const shards = 8
	m := newMap(h, "m", 1, Blocking, shards, 8*256)
	for key := uint64(1); key <= 1000; key++ {
		m.Put(0, key, key)
	}
	// Every shard should hold a reasonable fraction (mix() spreads keys).
	for s, sh := range m.shards {
		size := int(sh.CurrentState().Load(0))
		if size < 60 || size > 190 {
			t.Fatalf("shard %d holds %d of 1000 keys: bad distribution", s, size)
		}
	}
}

// TestRecoverIdempotent crashes inside a Put at every crash point, then
// exercises the map's recovery-idempotence contract: the first Recover
// resolves the op, a second Recover (same instance or after another
// re-open) reports nothing pending, and the state never changes again.
func TestRecoverIdempotent(t *testing.T) {
	for kk := int64(1); ; kk++ {
		h := newHeap()
		m := newMap(h, "m", 1, Blocking, 2, 64)
		m.Put(0, 5, 50)
		sh := m.shardOf(9)
		ctx := m.shards[sh].Ctx(0)
		ctx.SetCrashAt(kk)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			m.Put(0, 9, 90)
		}()
		if !crashed {
			return
		}
		h.Crash(pmem.DropUnfenced, kk)
		m2 := newMap(h, "m", 1, Blocking, 2, 64)
		if m2.Recover(0) == nil {
			t.Fatalf("crash@%d: interrupted Put not pending", kk)
		}
		if m2.Recover(0) != nil {
			t.Fatalf("crash@%d: resolved op still pending on second Recover", kk)
		}
		if v, ok := m2.Get(0, 9); !ok || v != 90 {
			t.Fatalf("crash@%d: key 9 = %d,%v", kk, v, ok)
		}
		m3 := newMap(h, "m", 1, Blocking, 2, 64)
		if m3.Recover(0) != nil {
			t.Fatalf("crash@%d: resolved op pending again after re-open", kk)
		}
		if m3.Len() != 2 {
			t.Fatalf("crash@%d: len = %d, want 2", kk, m3.Len())
		}
	}
}
