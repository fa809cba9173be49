package queue

import (
	"slices"
	"sync"
	"testing"

	"pcomb/internal/pmem"
	"pcomb/internal/testutil"
)

func newHeap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
}

// recoverEnq and recoverDeq call the instances' recovery functions with the
// interrupted operation's own arguments, as the system area does.
func recoverEnq(q *Queue, tid int, v, seq uint64) uint64 {
	return q.enq.(testutil.Instance).Recover(tid, OpEnq, v, 0, seq)
}

func recoverDeq(q *Queue, tid int, seq uint64) (uint64, bool) {
	r := q.deq.(testutil.Instance).Recover(tid, OpDeq, 0, 0, seq)
	return r, r != Empty
}

func variants() []struct {
	name string
	kind Kind
	opt  Options
} {
	return []struct {
		name string
		kind Kind
		opt  Options
	}{
		{"PBqueue", Blocking, Options{Recycling: true, Capacity: 1 << 15, ChunkSize: 32}},
		{"PBqueue-no-rec", Blocking, Options{Capacity: 1 << 16, ChunkSize: 32}},
		{"PWFqueue", WaitFree, Options{Capacity: 1 << 16, ChunkSize: 32}},
	}
}

func TestSequentialFIFO(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			q := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
			for i := uint64(1); i <= 50; i++ {
				q.Enqueue(0, i*7)
			}
			for i := uint64(1); i <= 50; i++ {
				got, ok := q.Dequeue(0)
				if !ok || got != i*7 {
					t.Fatalf("dequeue %d = %d,%v want %d", i, got, ok, i*7)
				}
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("queue should be empty")
			}
		})
	}
}

func TestDequeueEmpty(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			q := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("dequeue of empty queue must report empty")
			}
			q.Enqueue(0, 5)
			if v, ok := q.Dequeue(0); !ok || v != 5 {
				t.Fatalf("dequeue = %d,%v", v, ok)
			}
			if _, ok := q.Dequeue(0); ok {
				t.Fatal("queue should be empty again")
			}
		})
	}
}

func TestInterleavedSnapshot(t *testing.T) {
	h := newHeap()
	q := NewOn(h, "q", 1, Blocking, Options{Capacity: 1024, ChunkSize: 16}, nil, 0)
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(0, i)
	}
	q.Dequeue(0)
	q.Dequeue(0)
	snap := q.Snapshot()
	want := []uint64{3, 4, 5}
	if len(snap) != len(want) {
		t.Fatalf("snapshot %v", snap)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot %v, want %v", snap, want)
		}
	}
}

// concurrentPairs runs the paper's pairs workload (each thread alternates
// Enqueue and Dequeue) and verifies the multiset and per-producer-order
// invariants.
func concurrentPairs(t *testing.T, kind Kind, opt Options) {
	t.Helper()
	const n, per = 8, 200
	h := newHeap()
	q := NewOn(h, "q", n, kind, opt, nil, 0)
	popped := make([][]uint64, n)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := uint64(tid)<<32 | uint64(i) + 1
				q.Enqueue(tid, v)
				if got, ok := q.Dequeue(tid); ok {
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
	lastPerProducer := map[uint64]uint64{} // producer -> last consumed index+1
	consume := func(v uint64) {
		counts[v]--
		if counts[v] < 0 {
			t.Fatalf("value %x consumed twice", v)
		}
	}
	// FIFO per producer: across ALL consumers merged in consumption order we
	// can only check per-consumer monotonicity per producer, which FIFO
	// implies for a linearizable queue consumed by one logical stream at a
	// time; here we check the weaker multiset + residue invariants plus
	// per-consumer order.
	for tid := 0; tid < n; tid++ {
		local := map[uint64]uint64{}
		for _, v := range popped[tid] {
			consume(v)
			prod, idx := v>>32, v&0xffffffff
			if idx <= local[prod] {
				t.Fatalf("consumer %d saw producer %d out of order", tid, prod)
			}
			local[prod] = idx
		}
	}
	for _, v := range q.Snapshot() {
		consume(v)
	}
	for v, c := range counts {
		if c != 0 {
			t.Fatalf("value %x lost (count %d)", v, c)
		}
	}
	_ = lastPerProducer
}

func TestConcurrentAllVariants(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) { concurrentPairs(t, v.kind, v.opt) })
	}
}

func TestProducerConsumerSplit(t *testing.T) {
	// Half the threads enqueue, half dequeue: exercises IE/ID parallelism.
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			const n, per = 8, 300
			h := newHeap()
			q := NewOn(h, "q", n, v.kind, v.opt, nil, 0)
			var consumed sync.Map
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					if tid%2 == 0 {
						for i := 0; i < per; i++ {
							q.Enqueue(tid, uint64(tid)<<32|uint64(i)+1)
						}
					} else {
						for i := 0; i < per*2; i++ {
							if v, ok := q.Dequeue(tid); ok {
								if _, dup := consumed.LoadOrStore(v, tid); dup {
									t.Errorf("value %x consumed twice", v)
									return
								}
							}
						}
					}
				}(tid)
			}
			wg.Wait()
			// Drain the residue and count everything exactly once.
			total := 0
			consumed.Range(func(_, _ any) bool { total++; return true })
			total += len(q.Snapshot())
			if total != (n/2)*per {
				t.Fatalf("consumed+residue = %d, want %d", total, (n/2)*per)
			}
		})
	}
}

func TestDurabilityAfterCrash(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			q := NewOn(h, "q", 2, v.kind, v.opt, nil, 0)
			for i := uint64(1); i <= 20; i++ {
				q.Enqueue(0, i)
			}
			for i := uint64(1); i <= 5; i++ {
				got, ok := q.Dequeue(0)
				if !ok || got != i {
					t.Fatalf("dequeue = %d,%v", got, ok)
				}
			}
			h.Crash(pmem.DropUnfenced, 1)
			q2 := NewOn(h, "q", 2, v.kind, v.opt, nil, 0)
			snap := q2.Snapshot()
			if len(snap) != 15 {
				t.Fatalf("recovered %d elements, want 15 (%v)", len(snap), snap)
			}
			for i, want := 0, uint64(6); i < 15; i, want = i+1, want+1 {
				if snap[i] != want {
					t.Fatalf("snapshot[%d] = %d, want %d", i, snap[i], want)
				}
			}
			// Detectability: both last ops must be found, not re-run.
			if got := recoverEnq(q2, 0, 20, 20); got != EnqOK {
				t.Fatalf("recovered enqueue = %d", got)
			}
			if got, ok := recoverDeq(q2, 0, 5); !ok || got != 5 {
				t.Fatalf("recovered dequeue = %d,%v want 5", got, ok)
			}
			if q2.Len() != 15 {
				t.Fatalf("recovery re-executed a completed op: len %d", q2.Len())
			}
		})
	}
}

func TestCrashPointSweepEnqueue(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			for k := int64(1); ; k++ {
				h := newHeap()
				q := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				for i := uint64(1); i <= 3; i++ {
					q.Enqueue(0, i)
				}
				ctx := q.enq.(testutil.Instance).Ctx(0)
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
					q.Enqueue(0, 4)
				}()
				if !crashed {
					if k <= 1 {
						t.Fatal("sweep never crashed")
					}
					return
				}
				h.Crash(pmem.DropUnfenced, k)
				q2 := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				if got := recoverEnq(q2, 0, 4, 4); got != EnqOK {
					t.Fatalf("crash@%d: recovered enqueue = %d", k, got)
				}
				snap := q2.Snapshot()
				if len(snap) != 4 {
					t.Fatalf("crash@%d: snapshot %v, want [1 2 3 4]", k, snap)
				}
				for i := range snap {
					if snap[i] != uint64(i)+1 {
						t.Fatalf("crash@%d: snapshot %v", k, snap)
					}
				}
			}
		})
	}
}

func TestCrashPointSweepDequeue(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			for k := int64(1); ; k++ {
				h := newHeap()
				q := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				for i := uint64(1); i <= 4; i++ {
					q.Enqueue(0, i)
				}
				ctx := q.deq.(testutil.Instance).Ctx(0)
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
					q.Dequeue(0)
				}()
				if !crashed {
					if k <= 1 {
						t.Fatal("sweep never crashed")
					}
					return
				}
				h.Crash(pmem.DropUnfenced, k)
				q2 := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				got, ok := recoverDeq(q2, 0, 1)
				if !ok || got != 1 {
					t.Fatalf("crash@%d: recovered dequeue = %d,%v want 1", k, got, ok)
				}
				if snap := q2.Snapshot(); len(snap) != 3 || snap[0] != 2 {
					t.Fatalf("crash@%d: snapshot %v, want [2 3 4]", k, snap)
				}
			}
		})
	}
}

func TestRecyclingBoundsArena(t *testing.T) {
	h := newHeap()
	q := NewOn(h, "q", 1, Blocking, Options{Recycling: true, Capacity: 128, ChunkSize: 8}, nil, 0)
	// 500 pairs exceed the arena unless dequeued nodes are reused.
	for i := uint64(1); i <= 500; i++ {
		q.Enqueue(0, i)
		if _, ok := q.Dequeue(0); !ok {
			t.Fatal("unexpected empty")
		}
	}
}

func TestOldTailBoundsDequeuers(t *testing.T) {
	// Until an enqueue combiner's round hook runs, dequeuers must treat the
	// queue as empty. Simulate by checking oldTail only moves after a full
	// enqueue (which, single-threaded, completes synchronously).
	h := newHeap()
	q := NewOn(h, "q", 1, Blocking, Options{Capacity: 128, ChunkSize: 8}, nil, 0)
	before := q.oldTail.Load()
	q.Enqueue(0, 9)
	after := q.oldTail.Load()
	if before == after {
		t.Fatal("oldTail did not advance after a completed enqueue")
	}
}

func TestPWFPendingSpliceRecovery(t *testing.T) {
	// PWFqueue keeps a pending part (head/tail pointers in the IE state)
	// that is spliced onto the main list one round later. Crash while a
	// pending part exists: re-opening must re-perform the splice from the
	// persisted three-pointer state, idempotently, for every crash point.
	for k := int64(1); ; k++ {
		h := newHeap()
		q := NewOn(h, "q", 1, WaitFree, Options{Capacity: 1 << 12, ChunkSize: 16}, nil, 0)
		// Two enqueues: the second leaves a pending part behind.
		q.Enqueue(0, 1)
		q.Enqueue(0, 2)
		ctx := q.enq.(testutil.Instance).Ctx(0)
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
			q.Enqueue(0, 3)
		}()
		if !crashed {
			return
		}
		h.Crash(pmem.DropUnfenced, k)
		q2 := NewOn(h, "q", 1, WaitFree, Options{Capacity: 1 << 12, ChunkSize: 16}, nil, 0)
		recoverEnq(q2, 0, 3, 3)
		// All three values must be dequeueable in order: the splice was
		// re-performed even if it was lost at the crash.
		for want := uint64(1); want <= 3; want++ {
			got, ok := q2.Dequeue(0)
			if !ok || got != want {
				t.Fatalf("crash@%d: dequeue = %d,%v want %d", k, got, ok, want)
			}
		}
	}
}

func TestCrashSweepAllPolicies(t *testing.T) {
	// The enqueue crash sweep under every adversary: detectability must
	// hold whether pending write-backs are dropped, applied, or cut randomly.
	for _, pol := range []pmem.CrashPolicy{pmem.DropUnfenced, pmem.ApplyAll, pmem.RandomCut} {
		t.Run(pol.String(), func(t *testing.T) {
			for k := int64(1); ; k++ {
				h := newHeap()
				q := NewOn(h, "q", 1, Blocking, Options{Recycling: true, Capacity: 1 << 12, ChunkSize: 16}, nil, 0)
				for i := uint64(1); i <= 3; i++ {
					q.Enqueue(0, i)
				}
				ctx := q.enq.(testutil.Instance).Ctx(0)
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
					q.Enqueue(0, 4)
				}()
				if !crashed {
					return
				}
				h.Crash(pol, k*31+int64(len(pol.String())))
				q2 := NewOn(h, "q", 1, Blocking, Options{Recycling: true, Capacity: 1 << 12, ChunkSize: 16}, nil, 0)
				if got := recoverEnq(q2, 0, 4, 4); got != EnqOK {
					t.Fatalf("%v crash@%d: recovered enqueue = %d", pol, k, got)
				}
				snap := q2.Snapshot()
				if len(snap) != 4 {
					t.Fatalf("%v crash@%d: snapshot %v (exactly-once violated)", pol, k, snap)
				}
				for i := range snap {
					if snap[i] != uint64(i)+1 {
						t.Fatalf("%v crash@%d: snapshot %v", pol, k, snap)
					}
				}
			}
		})
	}
}

// TestRecoverIdempotent re-runs the recovery functions — twice on one
// re-opened instance, then once more after another re-open — at every
// crash point inside an enqueue and a dequeue. Responses and the durable
// residue must be identical each time (crash-during-recovery soundness).
func TestRecoverIdempotent(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			for k := int64(1); ; k++ {
				h := newHeap()
				q := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				for i := uint64(1); i <= 3; i++ {
					q.Enqueue(0, i)
				}
				ctx := q.enq.(testutil.Instance).Ctx(0)
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
					q.Enqueue(0, 4)
				}()
				if !crashed {
					break
				}
				h.Crash(pmem.DropUnfenced, k)
				q2 := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				if got := recoverEnq(q2, 0, 4, 4); got != EnqOK {
					t.Fatalf("crash@%d: recovered enqueue = %d", k, got)
				}
				if got := recoverEnq(q2, 0, 4, 4); got != EnqOK {
					t.Fatalf("crash@%d: second recovered enqueue = %d", k, got)
				}
				if snap := q2.Snapshot(); len(snap) != 4 {
					t.Fatalf("crash@%d: double recovery duplicated the enqueue: %v", k, snap)
				}
				q3 := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				if got := recoverEnq(q3, 0, 4, 4); got != EnqOK {
					t.Fatalf("crash@%d: re-opened recovered enqueue = %d", k, got)
				}
				if snap := q3.Snapshot(); len(snap) != 4 {
					t.Fatalf("crash@%d: third recovery duplicated the enqueue: %v", k, snap)
				}
			}
			for k := int64(1); ; k++ {
				h := newHeap()
				q := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				for i := uint64(1); i <= 4; i++ {
					q.Enqueue(0, i)
				}
				ctx := q.deq.(testutil.Instance).Ctx(0)
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
					q.Dequeue(0)
				}()
				if !crashed {
					return
				}
				h.Crash(pmem.DropUnfenced, k)
				q2 := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				v1, ok1 := recoverDeq(q2, 0, 1)
				v2, ok2 := recoverDeq(q2, 0, 1)
				if v1 != v2 || ok1 != ok2 || !ok1 || v1 != 1 {
					t.Fatalf("crash@%d: recovered dequeue %d,%v then %d,%v", k, v1, ok1, v2, ok2)
				}
				if snap := q2.Snapshot(); len(snap) != 3 {
					t.Fatalf("crash@%d: double recovery re-dequeued: %v", k, snap)
				}
				q3 := NewOn(h, "q", 1, v.kind, v.opt, nil, 0)
				if v3, ok3 := recoverDeq(q3, 0, 1); !ok3 || v3 != 1 {
					t.Fatalf("crash@%d: re-opened recovered dequeue = %d,%v", k, v3, ok3)
				}
				if snap := q3.Snapshot(); len(snap) != 3 {
					t.Fatalf("crash@%d: third recovery re-dequeued: %v", k, snap)
				}
			}
		})
	}
}

// TestPWFDequeueSeesOnlyDurableEnqueues runs a dequeue by thread 1 at every
// persistence event of an enqueue by thread 0 on an empty queue, then crashes
// before thread 0 returns. The dequeue returned, so its effect is durable:
// after recovery the queue must hold exactly the values it did not take, and
// an append must reach the next dequeue. A dequeue round that read the
// enqueue instance's S between its SC and its psync took a value the crash
// then rolled back, and left the durable head off the durable list.
func TestPWFDequeueSeesOnlyDurableEnqueues(t *testing.T) {
	opt := Options{Capacity: 1 << 12, ChunkSize: 16}
	for k := int64(1); ; k++ {
		h := newHeap()
		q := NewOn(h, "q", 2, WaitFree, opt, nil, 0)
		var got uint64
		var ok, ran bool
		h.SetKillAtEvent(k, func() {
			h.SetKillAtEvent(0, nil)
			got, ok = q.Dequeue(1)
			ran = true
			panic(pmem.CrashError{})
		})
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, isCrash := r.(pmem.CrashError); !isCrash {
						panic(r)
					}
				}
			}()
			q.Enqueue(0, 7)
		}()
		h.SetKillAtEvent(0, nil)
		if !ran {
			if k == 1 {
				t.Fatal("the enqueue reached no persistence event")
			}
			return
		}
		h.Crash(pmem.DropUnfenced, k)
		q2 := NewOn(h, "q", 2, WaitFree, opt, nil, 0)
		recoverEnq(q2, 0, 7, 1)
		var want []uint64
		if !ok {
			want = []uint64{7}
		} else if got != 7 {
			t.Fatalf("event %d: concurrent dequeue = %d", k, got)
		}
		// The recovered list must still take appends where dequeues find them.
		q2.Enqueue(1, 8)
		want = append(want, 8)
		var have []uint64
		for len(have) <= len(want) {
			v, ok := q2.Dequeue(0)
			if !ok {
				break
			}
			have = append(have, v)
		}
		if !slices.Equal(have, want) {
			t.Fatalf("event %d: concurrent dequeue returned %d,%v; after recovery and one more enqueue the queue drained %v, want %v", k, got, ok, have, want)
		}
	}
}
