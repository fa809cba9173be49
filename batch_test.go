package pcomb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/linearizability"
	"pcomb/internal/pmem"
)

func TestBatchQueueAsyncRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		sys := New(Options{CrashTesting: true, NoCost: true})
		q := sys.NewQueue("q", 2, kind, QueueOptions{VecCap: 4})
		// Futures expire two flushes after their own, so wait per batch
		// (VecCap 4 → auto-flush every 4 submits).
		for batch := uint64(0); batch < 2; batch++ {
			var fs []Future
			for i := uint64(1); i <= 5; i++ {
				fs = append(fs, q.SubmitEnqueue(0, batch*5+i))
			}
			q.Flush(0)
			for _, f := range fs {
				if r := f.Wait(); r != 0 {
					t.Fatalf("kind %d: enqueue result = %d", kind, r)
				}
			}
		}
		for i := uint64(1); i <= 10; i++ {
			f := q.SubmitDequeue(1)
			if v := f.Wait(); v != i {
				t.Fatalf("kind %d: dequeue = %d, want %d", kind, v, i)
			}
		}
		if f := q.SubmitDequeue(1); f.Wait() != Empty {
			t.Fatalf("kind %d: dequeue on empty queue should report Empty", kind)
		}
	}
}

func TestBatchQueueCrossClassOrder(t *testing.T) {
	// Submitting a dequeue must flush staged enqueues first (and vice
	// versa), so a thread's program order holds across op classes.
	sys := New(Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("q", 1, Blocking, QueueOptions{VecCap: 8})
	q.SubmitEnqueue(0, 41)
	q.SubmitEnqueue(0, 42)
	f := q.SubmitDequeue(0) // must see the staged enqueues
	if v := f.Wait(); v != 41 {
		t.Fatalf("dequeue = %d, want 41 (staged enqueues must flush first)", v)
	}
	q.SubmitEnqueue(0, 43) // must flush the pending dequeue batch... nothing pending
	q.Flush(0)
	if got := q.Snapshot(); len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Fatalf("snapshot = %v, want [42 43]", got)
	}
}

func TestBatchStackAsync(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		sys := New(Options{CrashTesting: true, NoCost: true})
		st := sys.NewStack("s", 1, kind, StackOptions{VecCap: 8})
		// Pushes and a pop share one vector; the combiner applies the
		// vector in submission order, so the pop sees the last push.
		st.SubmitPush(0, 1)
		st.SubmitPush(0, 2)
		st.SubmitPush(0, 3)
		f := st.SubmitPop(0)
		st.Flush(0)
		if v := f.Wait(); v != 3 {
			t.Fatalf("kind %d: batched pop = %d, want 3", kind, v)
		}
		if v, ok := st.Pop(0); !ok || v != 2 {
			t.Fatalf("kind %d: scalar pop after batch = %d,%v", kind, v, ok)
		}
	}
}

func TestBatchHeapAsync(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	h := sys.NewHeap("h", 1, WaitFree, 64, HeapOptions{VecCap: 4})
	for _, k := range []uint64{9, 3, 7, 5} { // exactly VecCap: one announcement
		h.SubmitInsert(0, k)
	}
	f := h.SubmitGetMin(0)
	g := h.SubmitDeleteMin(0)
	h.Flush(0)
	if v := f.Wait(); v != 3 {
		t.Fatalf("batched get-min = %d, want 3", v)
	}
	if v := g.Wait(); v != 3 {
		t.Fatalf("batched delete-min = %d, want 3", v)
	}
	if v, ok := h.GetMin(0); !ok || v != 5 {
		t.Fatalf("min after batch = %d,%v, want 5", v, ok)
	}
}

func TestBatchObjectAsync(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	c := sys.NewObject("c", 2, Blocking, counterObj{}, ObjectOptions{VecCap: 4})
	var fs []Future
	for i := 0; i < 6; i++ {
		fs = append(fs, c.Submit(0, 1, 10, 0))
	}
	c.Flush(0)
	for i, f := range fs {
		if v := f.Wait(); v != uint64(i*10) {
			t.Fatalf("add %d returned %d, want %d", i, f.Wait(), i*10)
		}
	}
	if v := c.State().Load(0); v != 60 {
		t.Fatalf("counter = %d, want 60", v)
	}
}

func TestBatchMapAsync(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	m := sys.NewMap("m", 2, WaitFree, MapOptions{Shards: 4, VecCap: 8})
	var fs []Future
	for k := uint64(1); k <= 12; k++ { // spans shards: grouped sub-batches
		fs = append(fs, m.SubmitPut(0, k, k*100))
	}
	m.Flush(0)
	for _, f := range fs {
		if v := f.Wait(); v != hashmap.NotFound {
			t.Fatalf("fresh put returned %d", v)
		}
	}
	g := m.SubmitGet(0, 7)
	d := m.SubmitDelete(0, 3)
	m.Flush(0)
	if v := g.Wait(); v != 700 {
		t.Fatalf("batched get = %d, want 700", v)
	}
	if v := d.Wait(); v != 300 {
		t.Fatalf("batched delete = %d, want 300", v)
	}
	if m.Len() != 11 {
		t.Fatalf("len = %d, want 11", m.Len())
	}
}

// crashIn runs stage-and-flush with a crash armed at the k-th persistence
// event from now and finishes the crash under policy; it reports whether the
// crash fired. Staging emits no persistence event and a flush writes its whole
// system-area record before its first, so k = 1 lands in the batch's ring
// publish with the record already open.
func crashIn(sys *System, k int64, policy CrashPolicy, run func()) (crashed bool) {
	h := sys.Heap()
	h.SetCrashAtEvent(k)
	defer h.SetCrashAtEvent(0)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(pmem.CrashError); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		run()
	}()
	if crashed {
		h.FinishCrash(policy, k)
	}
	return crashed
}

func TestBatchQueueCrashBeforePerform(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	o := QueueOptions{VecCap: 4}
	q := sys.NewQueue("q", 2, Blocking, o)
	q.Enqueue(0, 1)
	if !crashIn(sys, 1, DropUnfenced, func() {
		for v := uint64(10); v <= 12; v++ {
			q.SubmitEnqueue(0, v)
		}
		q.Flush(0)
	}) {
		t.Fatal("the flush did not crash")
	}

	q = sys.NewQueue("q", 2, Blocking, o)
	out := q.Recover(0)
	if len(out) != 3 {
		t.Fatalf("Recover = %v, want 3 ops", out)
	}
	for i, b := range out {
		if b.Op != OpEnqueue || b.A0 != 10+uint64(i) || b.Result != 0 || !b.Certain {
			t.Fatalf("op %d = %+v", i, b)
		}
	}
	if again := q.Recover(0); again != nil {
		t.Fatal("Recover must resolve exactly once")
	}
	if got := q.Snapshot(); len(got) != 4 || got[1] != 10 || got[3] != 12 {
		t.Fatalf("snapshot = %v, want [1 10 11 12]", got)
	}
}

func TestBatchQueueCrashAfterPerform(t *testing.T) {
	// Crash at every persistence event of a flush — the last ones after the
	// combiner applied the whole vector, with the record still open: recovery
	// must report every op and apply none of them twice.
	o := QueueOptions{VecCap: 4}
	crashes := 0
	for k := int64(1); ; k++ {
		for _, policy := range []CrashPolicy{DropUnfenced, ApplyAll} {
			sys := New(Options{CrashTesting: true, NoCost: true})
			q := sys.NewQueue("q", 1, WaitFree, o)
			if !crashIn(sys, k, policy, func() {
				q.SubmitEnqueue(0, 20)
				q.SubmitEnqueue(0, 21)
				q.Flush(0)
			}) {
				if crashes == 0 {
					t.Fatal("the flush never crashed")
				}
				return
			}
			crashes++
			q = sys.NewQueue("q", 1, WaitFree, o)
			if out := q.Recover(0); len(out) != 2 {
				t.Fatalf("event %d: Recover = %v", k, out)
			}
			if got := q.Snapshot(); len(got) != 2 || got[0] != 20 || got[1] != 21 {
				t.Fatalf("event %d: snapshot = %v, want [20 21] (no duplicates)", k, got)
			}
		}
	}
}

func TestBatchScalarRecoverDelegates(t *testing.T) {
	// The one Recover entry point resolves a pending vectorized batch as its
	// ops, so recovery loops need no per-mode call.
	sys := New(Options{CrashTesting: true, NoCost: true})
	o := StackOptions{VecCap: 4}
	st := sys.NewStack("s", 1, Blocking, o)
	crashIn(sys, 1, DropUnfenced, func() {
		st.SubmitPush(0, 5)
		st.SubmitPush(0, 6)
		st.Flush(0)
	})

	st = sys.NewStack("s", 1, Blocking, o)
	if out := st.Recover(0); len(out) != 2 || out[0].Op != OpPush || out[1].A0 != 6 {
		t.Fatalf("Recover = %+v, want pushes of 5 and 6", out)
	}
	if v, ok := st.Pop(0); !ok || v != 6 {
		t.Fatalf("pop = %d,%v, want 6", v, ok)
	}
}

func TestBatchRecoverScalarAsOneOpBatch(t *testing.T) {
	// A pending *scalar* op on a vector-capable structure is a batch of one.
	sys := New(Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("q", 1, Blocking, QueueOptions{VecCap: 4})
	q.sys.Begin(0, 0, OpEnqueue, 99, 0)
	sys.Crash(DropUnfenced, 1)

	q = sys.NewQueue("q", 1, Blocking, QueueOptions{VecCap: 4})
	out := q.Recover(0)
	if len(out) != 1 || out[0].Op != OpEnqueue || out[0].A0 != 99 {
		t.Fatalf("Recover = %v, want one enqueue of 99", out)
	}
	if got := q.Snapshot(); len(got) != 1 || got[0] != 99 {
		t.Fatalf("snapshot = %v, want [99]", got)
	}
}

func TestBatchObjectCrashRecoverBatch(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	oo := ObjectOptions{VecCap: 4}
	c := sys.NewObject("c", 1, WaitFree, counterObj{}, oo)
	c.Invoke(0, 1, 5, 0)
	crashIn(sys, 1, DropUnfenced, func() {
		for _, v := range []uint64{7, 8, 9} {
			c.Submit(0, 1, v, 0)
		}
		c.Flush(0)
	})

	c = sys.NewObject("c", 1, WaitFree, counterObj{}, oo)
	out := c.Recover(0)
	if len(out) != 3 {
		t.Fatalf("Recover = %v", out)
	}
	// counterObj returns the previous value: recovery must report each
	// op's individual response, not just the batch's.
	want := []uint64{5, 12, 20}
	for i, b := range out {
		if b.Op != 1 || b.Result != want[i] {
			t.Fatalf("op %d = %+v, want result %d", i, b, want[i])
		}
	}
	if v := c.State().Load(0); v != 29 {
		t.Fatalf("counter = %d, want 29", v)
	}
}

func TestBatchMapSparseDenseEquivalence(t *testing.T) {
	// A batched op sequence on the map's sparse shards must produce the
	// responses and final contents a whole-record (dense) run produces: the
	// sequential outcome, which the model below replays. internal/hashmap's
	// TestSparseMatchesDenseMap compares the shards against a dense instance
	// round for round.
	sys := New(Options{CrashTesting: true, NoCost: true})
	m := sys.NewMap("m", 1, Blocking, MapOptions{Shards: 2, VecCap: 4})
	model := map[uint64]uint64{}
	var rets, want []uint64
	var fs []Future
	// Wait each staged group before its futures can expire.
	drain := func() {
		m.Flush(0)
		for _, f := range fs {
			rets = append(rets, f.Wait())
		}
		fs = fs[:0]
	}
	old := func(k uint64) uint64 {
		if v, ok := model[k]; ok {
			return v
		}
		return hashmap.NotFound
	}
	for k := uint64(1); k <= 9; k++ {
		fs = append(fs, m.SubmitPut(0, k, k+100))
		want = append(want, old(k))
		model[k] = k + 100
		if len(fs) == 3 {
			drain()
		}
	}
	for k := uint64(1); k <= 9; k += 2 {
		fs = append(fs, m.SubmitDelete(0, k))
		want = append(want, old(k))
		delete(model, k)
	}
	drain()
	for k := uint64(1); k <= 9; k += 3 {
		fs = append(fs, m.SubmitGet(0, k))
		want = append(want, old(k))
	}
	drain()
	got := map[uint64]uint64{}
	m.Range(func(k, v uint64) bool { got[k] = v; return true })
	if len(got) != len(model) {
		t.Fatalf("contents %v, want %v", got, model)
	}
	for k, v := range model {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
	for i := range want {
		if rets[i] != want[i] {
			t.Fatalf("ret %d = %d, want %d", i, rets[i], want[i])
		}
	}
}

func TestBatchAsyncConcurrent(t *testing.T) {
	// Exercised under -race in CI: concurrent threads drive the async
	// Submit/Flush path on one queue; totals must balance.
	const threads, perThread = 4, 200
	sys := New(Options{NoCost: true})
	q := sys.NewQueue("q", threads, WaitFree, QueueOptions{VecCap: 8})
	var deqSum, deqCount atomic.Uint64
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			base := uint64(tid) * perThread
			for i := uint64(0); i < perThread; i++ {
				q.SubmitEnqueue(tid, base+i+1)
				if i%16 == 15 {
					f := q.SubmitDequeue(tid)
					if v := f.Wait(); v != Empty {
						deqSum.Add(v)
						deqCount.Add(1)
					}
				}
			}
			q.Flush(tid)
		}(tid)
	}
	wg.Wait()
	rest := q.Snapshot()
	got := deqSum.Load()
	for _, v := range rest {
		got += v
	}
	if uint64(len(rest))+deqCount.Load() != threads*perThread {
		t.Fatalf("op count mismatch: %d dequeued + %d left", deqCount.Load(), len(rest))
	}
	total := uint64(threads*perThread) * (threads*perThread + 1) / 2
	if got != total {
		t.Fatalf("value sum = %d, want %d", got, total)
	}
}

// recordBatched runs a concurrent batched workload on the queue or stack and
// returns the completed-op history: call stamps are taken at Submit, return
// stamps after the batch's Flush resolved each Future. Every op of a staged
// batch therefore overlaps every other, so the history is to be checked with
// linearizability.CheckOrdered: a batch applies in submission order.
func recordBatched(submit func(tid int, i uint64) Future, flush func(tid int), threads, rounds, batch int) []linearizability.Op {
	var clock atomic.Int64
	hist := make([][]linearizability.Op, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				type staged struct {
					op linearizability.Op
					f  Future
				}
				var batchOps []staged
				for i := 0; i < batch; i++ {
					n := uint64(r*batch + i)
					kind, arg := linearizability.KindEnq, uint64(tid)*1000+n+1
					if (int(n)+tid)%3 == 2 {
						kind, arg = linearizability.KindDeq, 0
					}
					call := clock.Add(1)
					var f Future
					if kind == linearizability.KindEnq {
						f = submit(tid, arg)
					} else {
						f = submit(tid, ^uint64(0))
					}
					batchOps = append(batchOps, staged{linearizability.Op{
						Thread: tid, Call: call, Kind: kind, Arg: arg,
					}, f})
				}
				flush(tid)
				for _, s := range batchOps {
					s.op.Out = s.f.Wait()
					s.op.Return = clock.Add(1)
					hist[tid] = append(hist[tid], s.op)
				}
			}
		}(tid)
	}
	wg.Wait()
	var out []linearizability.Op
	for _, h := range hist {
		out = append(out, h...)
	}
	return out
}

func TestBatchQueueLinearizable(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		sys := New(Options{NoCost: true})
		q := sys.NewQueue("q", 3, kind, QueueOptions{VecCap: 4})
		hist := recordBatched(func(tid int, v uint64) Future {
			if v == ^uint64(0) {
				return q.SubmitDequeue(tid)
			}
			return q.SubmitEnqueue(tid, v)
		}, q.Flush, 3, 2, 4)
		if len(hist) != 24 {
			t.Fatalf("kind %d: recorded %d ops", kind, len(hist))
		}
		if !linearizability.CheckOrdered(linearizability.QueueModel{}, hist) {
			t.Fatalf("kind %d: batched queue history not linearizable: %+v", kind, hist)
		}
	}
}

func TestBatchStackLinearizable(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		sys := New(Options{NoCost: true})
		st := sys.NewStack("s", 3, kind, StackOptions{VecCap: 4})
		hist := recordBatched(func(tid int, v uint64) Future {
			if v == ^uint64(0) {
				return st.SubmitPop(tid)
			}
			return st.SubmitPush(tid, v)
		}, st.Flush, 3, 2, 4)
		if !linearizability.CheckOrdered(linearizability.StackModel{}, hist) {
			t.Fatalf("kind %d: batched stack history not linearizable: %+v", kind, hist)
		}
	}
}

// TestBatchPipelessStructure: on a structure built without VecCap > 1 there
// is no pipe, so nothing can be staged — Flush does nothing, Pending is 0,
// and Submit* panics naming the missing option (none of them a nil
// dereference, which all but Queue.Pending* used to be).
func TestBatchPipelessStructure(t *testing.T) {
	sys := New(Options{NoCost: true})
	q := sys.NewQueue("q", 1, Blocking)
	st := sys.NewStack("s", 1, Blocking)
	hp := sys.NewHeap("h", 1, Blocking, 8)
	obj := sys.NewObject("o", 1, Blocking, core.Counter{})
	m := sys.NewMap("m", 1, Blocking)
	for _, tc := range []struct {
		name    string
		flush   func(tid int)
		pending func(tid int) int // nil where the structure exposes none
		submit  func()
	}{
		{"Queue", q.Flush, q.Pending, func() { q.SubmitEnqueue(0, 1) }},
		{"Queue/dequeue", q.Flush, q.Pending, func() { q.SubmitDequeue(0) }},
		{"Stack", st.Flush, nil, func() { st.SubmitPush(0, 1) }},
		{"Heap", hp.Flush, nil, func() { hp.SubmitInsert(0, 1) }},
		{"Recoverable", obj.Flush, nil, func() { obj.Submit(0, core.OpCounterAdd, 1, 0) }},
		{"Map", m.Flush, m.Pending, func() { m.SubmitPut(0, 1, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.flush(0)
			if tc.pending != nil && tc.pending(0) != 0 {
				t.Fatalf("Pending = %d on a structure that cannot stage", tc.pending(0))
			}
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "VecCap") {
					t.Fatalf("Submit panicked with %q, want a message naming VecCap", msg)
				}
			}()
			tc.submit()
			t.Fatal("Submit on a pipeless structure returned")
		})
	}
}
