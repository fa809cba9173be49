package heap

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
	"pcomb/internal/testutil"
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
			hp := New(h, "h", 1, k.kind, 128, 0)
			vals := []uint64{42, 7, 99, 1, 63, 7, 12, 88, 3}
			for _, v := range vals {
				if !hp.Insert(0, v) {
					t.Fatal("insert failed")
				}
			}
			sorted := append([]uint64(nil), vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, want := range sorted {
				got, ok := hp.DeleteMin(0)
				if !ok || got != want {
					t.Fatalf("DeleteMin = %d,%v want %d", got, ok, want)
				}
			}
			if _, ok := hp.DeleteMin(0); ok {
				t.Fatal("heap should be empty")
			}
		})
	}
}

func TestGetMinNonDestructive(t *testing.T) {
	h := newHeap()
	hp := New(h, "h", 1, Blocking, 16, 0)
	hp.Insert(0, 5)
	hp.Insert(0, 3)
	if v, ok := hp.GetMin(0); !ok || v != 3 {
		t.Fatalf("GetMin = %d,%v", v, ok)
	}
	if hp.Len() != 2 {
		t.Fatal("GetMin must not remove")
	}
}

func TestBoundedInsert(t *testing.T) {
	h := newHeap()
	hp := New(h, "h", 1, Blocking, 4, 0)
	for i := uint64(1); i <= 4; i++ {
		if !hp.Insert(0, i) {
			t.Fatal("insert within bound failed")
		}
	}
	if hp.Insert(0, 5) {
		t.Fatal("insert beyond bound must fail")
	}
	if hp.Len() != 4 {
		t.Fatalf("len = %d", hp.Len())
	}
}

func TestEmptyOps(t *testing.T) {
	h := newHeap()
	hp := New(h, "h", 1, Blocking, 8, 0)
	if _, ok := hp.DeleteMin(0); ok {
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
		hp := New(h, "h", 1, Blocking, 64, 0)
		var oracle []uint64
		for _, op := range ops {
			if op%3 != 0 {
				key := uint64(op >> 2)
				if hp.Insert(0, key) {
					oracle = append(oracle, key)
				} else if len(oracle) < 64 {
					return false
				}
			} else {
				got, ok := hp.DeleteMin(0)
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
			hp := New(h, "h", n, k.kind, 1024, 0)
			// Half-full start, as in Figure 3b's setup.
			for i := 0; i < 512; i++ {
				hp.Insert(0, uint64(rand.Intn(1<<20)))
			}
			startLen := hp.Len()
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(tid)))
					for i := 0; i < per; i++ {
						hp.Insert(tid, uint64(rng.Intn(1<<20)))
						hp.DeleteMin(tid)
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
			hp := New(h, "h", 1, k.kind, 64, 0)
			for i := uint64(1); i <= 10; i++ {
				hp.Insert(0, 100-i)
			}
			hp.DeleteMin(0) // removes 90, under sequence number 11
			h.Crash(pmem.DropUnfenced, 1)
			hp2 := New(h, "h", 1, k.kind, 64, 0)
			if hp2.Len() != 9 {
				t.Fatalf("recovered len = %d, want 9", hp2.Len())
			}
			if !heapInvariant(hp2.Keys()) {
				t.Fatal("recovered heap violates invariant")
			}
			if got := hp2.comb.(testutil.Instance).Recover(0, OpDeleteMin, 0, 0, 11); got != 90 {
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
				hp := New(h, "h", 1, k.kind, 64, 0)
				for i := uint64(1); i <= 3; i++ {
					hp.Insert(0, i*10)
				}
				ctx := hp.comb.(testutil.Instance).Ctx(0)
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
					hp.Insert(0, 5) // sequence number 4
				}()
				if !crashed {
					return
				}
				h.Crash(pmem.DropUnfenced, kk)
				hp2 := New(h, "h", 1, k.kind, 64, 0)
				if got := hp2.comb.(testutil.Instance).Recover(0, OpInsert, 5, 0, 4); got != InsertOK {
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

// TestRecoverIdempotent re-runs Recover for an interrupted insert — twice
// on one re-opened instance, then after another re-open — at every crash
// point. The key must land exactly once and the heap invariant must hold.
func TestRecoverIdempotent(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			for kk := int64(1); ; kk++ {
				h := newHeap()
				hp := New(h, "h", 1, k.kind, 64, 0)
				for i := uint64(1); i <= 3; i++ {
					hp.Insert(0, i*10)
				}
				ctx := hp.comb.(testutil.Instance).Ctx(0)
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
					hp.Insert(0, 5) // sequence number 4
				}()
				if !crashed {
					return
				}
				h.Crash(pmem.DropUnfenced, kk)
				hp2 := New(h, "h", 1, k.kind, 64, 0)
				r1 := hp2.comb.(testutil.Instance).Recover(0, OpInsert, 5, 0, 4)
				r2 := hp2.comb.(testutil.Instance).Recover(0, OpInsert, 5, 0, 4)
				if r1 != r2 || r1 != InsertOK {
					t.Fatalf("crash@%d: Recover returned %d then %d", kk, r1, r2)
				}
				if hp2.Len() != 4 || !heapInvariant(hp2.Keys()) {
					t.Fatalf("crash@%d: double recovery broke the heap: %v", kk, hp2.Keys())
				}
				hp3 := New(h, "h", 1, k.kind, 64, 0)
				if r3 := hp3.comb.(testutil.Instance).Recover(0, OpInsert, 5, 0, 4); r3 != r1 {
					t.Fatalf("crash@%d: re-opened Recover returned %d", kk, r3)
				}
				if hp3.Len() != 4 || !heapInvariant(hp3.Keys()) {
					t.Fatalf("crash@%d: third recovery broke the heap: %v", kk, hp3.Keys())
				}
			}
		})
	}
}
