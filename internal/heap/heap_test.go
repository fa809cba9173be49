package heap

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
)

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
	}{{"PBheap", Blocking}, {"PWFheap", WaitFree}}
}

func TestSortedExtraction(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			h := newHeap()
			hp := New(h, "h", 1, k.kind, 128)
			vals := []uint64{42, 7, 99, 1, 63, 7, 12, 88, 3}
			seq := uint64(1)
			for _, v := range vals {
				if !hp.Insert(0, v, seq) {
					t.Fatal("insert failed")
				}
				seq++
			}
			sorted := append([]uint64(nil), vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, want := range sorted {
				got, ok := hp.DeleteMin(0, seq)
				seq++
				if !ok || got != want {
					t.Fatalf("DeleteMin = %d,%v want %d", got, ok, want)
				}
			}
			if _, ok := hp.DeleteMin(0, seq); ok {
				t.Fatal("heap should be empty")
			}
		})
	}
}

func TestGetMinNonDestructive(t *testing.T) {
	h := newHeap()
	hp := New(h, "h", 1, Blocking, 16)
	hp.Insert(0, 5, 1)
	hp.Insert(0, 3, 2)
	if v, ok := hp.GetMin(0); !ok || v != 3 {
		t.Fatalf("GetMin = %d,%v", v, ok)
	}
	if hp.Len() != 2 {
		t.Fatal("GetMin must not remove")
	}
}

func TestBoundedInsert(t *testing.T) {
	h := newHeap()
	hp := New(h, "h", 1, Blocking, 4)
	for i := uint64(1); i <= 4; i++ {
		if !hp.Insert(0, i, i) {
			t.Fatal("insert within bound failed")
		}
	}
	if hp.Insert(0, 5, 5) {
		t.Fatal("insert beyond bound must fail")
	}
	if hp.Len() != 4 {
		t.Fatalf("len = %d", hp.Len())
	}
}

func TestEmptyOps(t *testing.T) {
	h := newHeap()
	hp := New(h, "h", 1, Blocking, 8)
	if _, ok := hp.DeleteMin(0, 1); ok {
		t.Fatal("DeleteMin on empty")
	}
	if _, ok := hp.GetMin(0); ok {
		t.Fatal("GetMin on empty")
	}
}

func heapInvariant(keys []uint64) bool {
	for i := range keys {
		l, r := 2*i+1, 2*i+2
		if l < len(keys) && keys[l] < keys[i] {
			return false
		}
		if r < len(keys) && keys[r] < keys[i] {
			return false
		}
	}
	return true
}

func TestQuickHeapProperty(t *testing.T) {
	// Property: after any sequence of inserts/deletes, the key array
	// satisfies the heap invariant and extraction matches a sorted oracle.
	f := func(ops []uint16) bool {
		h := newHeap()
		hp := New(h, "h", 1, Blocking, 64)
		var oracle []uint64
		seq := uint64(1)
		for _, op := range ops {
			if op%3 != 0 {
				key := uint64(op >> 2)
				if hp.Insert(0, key, seq) {
					oracle = append(oracle, key)
				} else if len(oracle) < 64 {
					return false
				}
			} else {
				got, ok := hp.DeleteMin(0, seq)
				if len(oracle) == 0 {
					if ok {
						return false
					}
				} else {
					mi := 0
					for i, v := range oracle {
						if v < oracle[mi] {
							mi = i
						}
					}
					if !ok || got != oracle[mi] {
						return false
					}
					oracle = append(oracle[:mi], oracle[mi+1:]...)
				}
			}
			seq++
			if !heapInvariant(hp.Keys()) {
				return false
			}
		}
		return hp.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertDelete(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			const n, per = 8, 150
			h := newHeap()
			hp := New(h, "h", n, k.kind, 1024)
			// Half-full start, as in Figure 3b's setup.
			for i := 0; i < 512; i++ {
				hp.Insert(0, uint64(rand.Intn(1<<20)), uint64(i)+1)
			}
			startLen := hp.Len()
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					// seq continues each thread's own invocation count: tid 0
					// already issued the 512 pre-fill inserts.
					seq := uint64(1)
					if tid == 0 {
						seq = 513
					}
					for i := 0; i < per; i++ {
						hp.Insert(tid, uint64(rng.Intn(1<<20)), seq)
						seq++
						hp.DeleteMin(tid, seq)
						seq++
					}
				}(tid)
			}
			wg.Wait()
			if hp.Len() != startLen {
				t.Fatalf("len = %d, want %d (equal inserts and deletes)", hp.Len(), startLen)
			}
			if !heapInvariant(hp.Keys()) {
				t.Fatal("heap invariant violated")
			}
		})
	}
}

func TestDurabilityAfterCrash(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			h := newHeap()
			hp := New(h, "h", 1, k.kind, 64)
			for i := uint64(1); i <= 10; i++ {
				hp.Insert(0, 100-i, i)
			}
			hp.DeleteMin(0, 1) // removes 90
			h.Crash(pmem.DropUnfenced, 1)
			hp2 := New(h, "h", 1, k.kind, 64)
			if hp2.Len() != 9 {
				t.Fatalf("recovered len = %d, want 9", hp2.Len())
			}
			if !heapInvariant(hp2.Keys()) {
				t.Fatal("recovered heap violates invariant")
			}
			if got := hp2.Protocol().Recover(0, OpDeleteMin, 0, 0, 1); got != 90 {
				t.Fatalf("Recover(DeleteMin) = %d, want 90", got)
			}
			if hp2.Len() != 9 {
				t.Fatal("Recover re-executed a completed DeleteMin")
			}
		})
	}
}

func TestCrashPointSweepInsert(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			for kk := int64(1); ; kk++ {
				h := newHeap()
				hp := New(h, "h", 1, k.kind, 64)
				for i := uint64(1); i <= 3; i++ {
					hp.Insert(0, i*10, i)
				}
				ctx := hp.Protocol().Ctx(0)
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
					hp.Insert(0, 5, 4)
				}()
				if !crashed {
					return
				}
				h.Crash(pmem.DropUnfenced, kk)
				hp2 := New(h, "h", 1, k.kind, 64)
				if got := hp2.Protocol().Recover(0, OpInsert, 5, 0, 4); got != InsertOK {
					t.Fatalf("crash@%d: Recover(Insert) = %d", kk, got)
				}
				if hp2.Len() != 4 {
					t.Fatalf("crash@%d: len = %d, want 4", kk, hp2.Len())
				}
				if v, _ := hp2.GetMin(0); v != 5 {
					t.Fatalf("crash@%d: min = %d, want 5", kk, v)
				}
			}
		})
	}
}

func TestSparseHeapMatchesDense(t *testing.T) {
	h1, h2 := newHeap(), newHeap()
	a := NewSparse(h1, "a", 1, 128)
	b := New(h2, "b", 1, Blocking, 128)
	rng := rand.New(rand.NewSource(31))
	for i := uint64(1); i <= 500; i++ {
		if rng.Intn(2) == 0 {
			k := rng.Uint64() % (1 << 20)
			ra := a.Insert(0, k, i)
			rb := b.Insert(0, k, i)
			if ra != rb {
				t.Fatalf("op %d: insert diverged", i)
			}
		} else {
			va, oka := a.DeleteMin(0, i)
			vb, okb := b.DeleteMin(0, i)
			if va != vb || oka != okb {
				t.Fatalf("op %d: deletemin diverged (%d,%v) vs (%d,%v)", i, va, oka, vb, okb)
			}
		}
	}
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("sizes diverge: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("key %d diverges", i)
		}
	}
}

func TestSparseHeapCrash(t *testing.T) {
	h := newHeap()
	hp := NewSparse(h, "h", 1, 1024)
	rng := rand.New(rand.NewSource(7))
	live := map[uint64]int{}
	seq := uint64(1)
	for i := 0; i < 800; i++ {
		if rng.Intn(2) == 0 {
			k := rng.Uint64() % (1 << 30)
			if hp.Insert(0, k, seq) {
				live[k]++
			}
		} else if v, ok := hp.DeleteMin(0, seq); ok {
			live[v]--
			if live[v] == 0 {
				delete(live, v)
			}
		}
		seq++
	}
	h.Crash(pmem.DropUnfenced, 1)
	hp2 := NewSparse(h, "h", 1, 1024)
	if !heapInvariant(hp2.Keys()) {
		t.Fatal("recovered sparse heap violates invariant")
	}
	got := map[uint64]int{}
	for _, k := range hp2.Keys() {
		got[k]++
	}
	for k, c := range live {
		if got[k] != c {
			t.Fatalf("key %d count %d, want %d", k, got[k], c)
		}
	}
	for k, c := range got {
		if live[k] != c {
			t.Fatalf("phantom key %d (count %d)", k, c)
		}
	}
}

func TestSparseHeapFewerPwbs(t *testing.T) {
	count := func(sparse bool) uint64 {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
		var hp *Heap
		if sparse {
			hp = NewSparse(h, "h", 1, 1024)
		} else {
			hp = New(h, "h", 1, Blocking, 1024)
		}
		for i := uint64(1); i <= 256; i++ {
			hp.Insert(0, i*977%4096, i)
		}
		h.ResetStats()
		seq := uint64(257)
		for i := 0; i < 200; i++ {
			hp.Insert(0, uint64(i*31%4096), seq)
			seq++
			hp.DeleteMin(0, seq)
			seq++
		}
		return h.Stats().Pwbs
	}
	dense, sparse := count(false), count(true)
	if sparse*5 > dense {
		t.Fatalf("sparse heap pwbs %d not ≪ dense %d at bound 1024", sparse, dense)
	}
}

// TestRecoverIdempotent re-runs Recover for an interrupted insert — twice
// on one re-opened instance, then after another re-open — at every crash
// point. The key must land exactly once and the heap invariant must hold.
func TestRecoverIdempotent(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			for kk := int64(1); ; kk++ {
				h := newHeap()
				hp := New(h, "h", 1, k.kind, 64)
				for i := uint64(1); i <= 3; i++ {
					hp.Insert(0, i*10, i)
				}
				ctx := hp.Protocol().Ctx(0)
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
					hp.Insert(0, 5, 4)
				}()
				if !crashed {
					return
				}
				h.Crash(pmem.DropUnfenced, kk)
				hp2 := New(h, "h", 1, k.kind, 64)
				r1 := hp2.Protocol().Recover(0, OpInsert, 5, 0, 4)
				r2 := hp2.Protocol().Recover(0, OpInsert, 5, 0, 4)
				if r1 != r2 || r1 != InsertOK {
					t.Fatalf("crash@%d: Recover returned %d then %d", kk, r1, r2)
				}
				if hp2.Len() != 4 || !heapInvariant(hp2.Keys()) {
					t.Fatalf("crash@%d: double recovery broke the heap: %v", kk, hp2.Keys())
				}
				hp3 := New(h, "h", 1, k.kind, 64)
				if r3 := hp3.Protocol().Recover(0, OpInsert, 5, 0, 4); r3 != r1 {
					t.Fatalf("crash@%d: re-opened Recover returned %d", kk, r3)
				}
				if hp3.Len() != 4 || !heapInvariant(hp3.Keys()) {
					t.Fatalf("crash@%d: third recovery broke the heap: %v", kk, hp3.Keys())
				}
			}
		})
	}
}
