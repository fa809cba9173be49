package stack

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
)

func newHeap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
}

func allVariants() []struct {
	name string
	kind Kind
	opt  Options
} {
	return []struct {
		name string
		kind Kind
		opt  Options
	}{
		{"PBstack", Blocking, Options{Elimination: true, Recycling: true, Capacity: 1 << 14, ChunkSize: 32}},
		{"PBstack-no-elim", Blocking, Options{Recycling: true, Capacity: 1 << 14, ChunkSize: 32}},
		{"PBstack-no-rec", Blocking, Options{Elimination: true, Capacity: 1 << 16, ChunkSize: 32}},
		{"PWFstack", WaitFree, Options{Elimination: true, Recycling: true, Capacity: 1 << 14, ChunkSize: 32}},
		{"PWFstack-no-elim", WaitFree, Options{Recycling: true, Capacity: 1 << 14, ChunkSize: 32}},
		{"PWFstack-no-rec", WaitFree, Options{Elimination: true, Capacity: 1 << 16, ChunkSize: 32}},
	}
}

func TestSequentialLIFO(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			s := New(h, "s", 1, v.kind, v.opt)
			for i := uint64(1); i <= 50; i++ {
				s.Push(0, i*10)
			}
			for i := uint64(50); i >= 1; i-- {
				got, ok := s.Pop(0)
				if !ok || got != i*10 {
					t.Fatalf("pop = %d,%v want %d", got, ok, i*10)
				}
			}
			if _, ok := s.Pop(0); ok {
				t.Fatal("stack should be empty")
			}
		})
	}
}

func TestPopEmpty(t *testing.T) {
	h := newHeap()
	s := New(h, "s", 1, Blocking, Options{Capacity: 128, ChunkSize: 8})
	if _, ok := s.Pop(0); ok {
		t.Fatal("pop of empty stack must report empty")
	}
	s.Push(0, 7)
	if v, ok := s.Pop(0); !ok || v != 7 {
		t.Fatalf("pop = %d,%v", v, ok)
	}
}

// concurrentPushPop runs the paper's pairs workload and checks the multiset
// invariant: every popped value was pushed exactly once, and the final
// snapshot plus pops equals all pushes.
func concurrentPushPop(t *testing.T, kind Kind, opt Options) {
	t.Helper()
	const n, per = 8, 200
	h := newHeap()
	s := New(h, "s", n, kind, opt)
	popped := make([][]uint64, n)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := uint64(tid)<<32 | uint64(i) + 1
				s.Push(tid, v)
				if got, ok := s.Pop(tid); ok {
					popped[tid] = append(popped[tid], got)
				}
			}
		}(tid)
	}
	wg.Wait()

	counts := map[uint64]int{}
	for tid := 0; tid < n; tid++ {
		for i := 0; i < per; i++ {
			counts[uint64(tid)<<32|uint64(i)+1]++
		}
	}
	for _, ps := range popped {
		for _, v := range ps {
			counts[v]--
			if counts[v] < 0 {
				t.Fatalf("value %x popped more times than pushed", v)
			}
		}
	}
	for _, v := range s.Snapshot() {
		counts[v]--
		if counts[v] < 0 {
			t.Fatalf("value %x appears twice (snapshot)", v)
		}
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("value %x lost (count %d)", v, c)
		}
	}
}

func TestConcurrentAllVariants(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.name, func(t *testing.T) { concurrentPushPop(t, v.kind, v.opt) })
	}
}

func TestRecyclingReusesNodes(t *testing.T) {
	h := newHeap()
	s := New(h, "s", 1, Blocking, Options{Recycling: true, Capacity: 64, ChunkSize: 8})
	// 200 push/pop pairs exceed the 64-node arena unless nodes recycle.
	for i := 0; i < 200; i++ {
		s.Push(0, uint64(i))
		if _, ok := s.Pop(0); !ok {
			t.Fatal("unexpected empty")
		}
	}
}

func TestDurabilityAfterCrash(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			s := New(h, "s", 2, v.kind, v.opt)
			for i := uint64(1); i <= 20; i++ {
				s.Push(0, i)
			}
			for i := 0; i < 5; i++ {
				s.Pop(0)
			}
			h.Crash(pmem.DropUnfenced, 1)
			s2 := New(h, "s", 2, v.kind, v.opt)
			snap := s2.Snapshot()
			if len(snap) != 15 {
				t.Fatalf("recovered %d elements, want 15", len(snap))
			}
			for i, want := uint64(15), uint64(15); i >= 1; i, want = i-1, want-1 {
				if snap[15-i] != want {
					t.Fatalf("snapshot[%d] = %d, want %d", 15-i, snap[15-i], want)
				}
			}
			// Detectability of the last completed pop, the thread's 25th
			// operation.
			if got := s2.comb.Recover(0, OpPop, 0, 0, 25); got != 16 {
				t.Fatalf("Recover(pop) = %d, want 16", got)
			}
			if got := s2.Len(); got != 15 {
				t.Fatalf("Recover re-executed a completed pop: len %d", got)
			}
		})
	}
}

func TestCrashPointSweepPush(t *testing.T) {
	// Crash at every persistence event inside a Push; after recovery the
	// stack must contain the pushed value exactly once.
	for _, kindName := range []struct {
		name string
		kind Kind
	}{{"PB", Blocking}, {"PWF", WaitFree}} {
		t.Run(kindName.name, func(t *testing.T) {
			for k := int64(1); ; k++ {
				h := newHeap()
				s := New(h, "s", 1, kindName.kind, Options{Capacity: 256, ChunkSize: 8})
				for i := uint64(1); i <= 3; i++ {
					s.Push(0, i)
				}
				ctx := s.comb.Ctx(0)
				ctx.SetCrashAt(k)
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
					s.Push(0, 4) // sequence number 4
				}()
				if !crashed {
					if k <= 1 {
						t.Fatal("sweep never crashed")
					}
					return
				}
				h.Crash(pmem.DropUnfenced, k)
				s2 := New(h, "s", 1, kindName.kind, Options{Capacity: 256, ChunkSize: 8})
				if got := s2.comb.Recover(0, OpPush, 4, 0, 4); got != PushOK {
					t.Fatalf("crash@%d: Recover(push) = %d", k, got)
				}
				snap := s2.Snapshot()
				if len(snap) != 4 || snap[0] != 4 {
					t.Fatalf("crash@%d: snapshot %v, want [4 3 2 1]", k, snap)
				}
			}
		})
	}
}

func TestEliminationPreservesSemantics(t *testing.T) {
	// Property: a random op sequence gives identical results with and
	// without elimination (single thread, so elimination pairs the op with
	// nothing — also run a 2-op batch case via concurrency elsewhere).
	f := func(ops []bool, vals []uint64) bool {
		h1, h2 := newHeap(), newHeap()
		a := New(h1, "a", 1, Blocking, Options{Elimination: true, Capacity: 4096, ChunkSize: 16})
		b := New(h2, "b", 1, Blocking, Options{Capacity: 4096, ChunkSize: 16})
		vi := 0
		for _, isPush := range ops {
			if isPush && vi < len(vals) {
				v := vals[vi]
				if v == Empty {
					v-- // keep below the sentinel
				}
				vi++
				a.Push(0, v)
				b.Push(0, v)
			} else {
				ra, oka := a.Pop(0)
				rb, okb := b.Pop(0)
				if ra != rb || oka != okb {
					return false
				}
			}
		}
		sa, sb := a.Snapshot(), b.Snapshot()
		if len(sa) != len(sb) {
			return false
		}
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistenceCostLowerWithElimination(t *testing.T) {
	// With a multi-thread batch of balanced push/pop, elimination should
	// allocate fewer nodes and thus issue fewer pwbs.
	run := func(elim bool) uint64 {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
		s := New(h, "s", 8, Blocking, Options{Elimination: elim, Capacity: 1 << 14, ChunkSize: 32})
		var wg sync.WaitGroup
		for tid := 0; tid < 8; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if tid%2 == 0 {
						s.Push(tid, uint64(i)+1)
					} else {
						s.Pop(tid)
					}
				}
			}(tid)
		}
		wg.Wait()
		return h.Stats().Pwbs
	}
	with, without := run(true), run(false)
	if with > without {
		t.Logf("note: elimination pwbs=%d > no-elim pwbs=%d (low combining degree run)", with, without)
	}
}

// TestRecoverIdempotent re-runs Recover for an interrupted push — twice on
// one re-opened instance, then after another re-open — at every crash
// point. The response must repeat and the value must appear exactly once.
func TestRecoverIdempotent(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.name, func(t *testing.T) {
			for k := int64(1); ; k++ {
				h := newHeap()
				s := New(h, "s", 1, v.kind, v.opt)
				for i := uint64(1); i <= 3; i++ {
					s.Push(0, i*10)
				}
				ctx := s.comb.Ctx(0)
				ctx.SetCrashAt(k)
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
					s.Push(0, 40)
				}()
				if !crashed {
					return
				}
				h.Crash(pmem.DropUnfenced, k)
				s2 := New(h, "s", 1, v.kind, v.opt)
				r1 := s2.comb.Recover(0, OpPush, 40, 0, 4)
				r2 := s2.comb.Recover(0, OpPush, 40, 0, 4)
				if r1 != r2 {
					t.Fatalf("crash@%d: Recover returned %d then %d", k, r1, r2)
				}
				if snap := s2.Snapshot(); len(snap) != 4 {
					t.Fatalf("crash@%d: double recovery changed the stack: %v", k, snap)
				}
				s3 := New(h, "s", 1, v.kind, v.opt)
				if r3 := s3.comb.Recover(0, OpPush, 40, 0, 4); r3 != r1 {
					t.Fatalf("crash@%d: re-opened Recover returned %d, want %d", k, r3, r1)
				}
				if snap := s3.Snapshot(); len(snap) != 4 {
					t.Fatalf("crash@%d: third recovery changed the stack: %v", k, snap)
				}
			}
		})
	}
}
