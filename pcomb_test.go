package pcomb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
)

func TestPublicQueueRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		sys := New(Options{CrashTesting: true, NoCost: true})
		q := sys.NewQueue("q", 2, kind)
		for i := uint64(1); i <= 10; i++ {
			q.Enqueue(0, i)
		}
		for i := uint64(1); i <= 10; i++ {
			v, ok := q.Dequeue(1)
			if !ok || v != i {
				t.Fatalf("kind %d: dequeue = %d,%v", kind, v, ok)
			}
		}
	}
}

func TestPublicQueueCrashRecover(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("q", 2, Blocking)
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(0, i)
	}
	q.Dequeue(0)

	sys.Crash(DropUnfenced, 1)
	q = sys.NewQueue("q", 2, Blocking)
	for tid := 0; tid < 2; tid++ {
		if rs := q.Recover(tid); rs != nil {
			t.Fatalf("tid %d: no op was in flight, none should be pending", tid)
		}
	}
	snap := q.Snapshot()
	if len(snap) != 4 || snap[0] != 2 {
		t.Fatalf("recovered snapshot %v, want [2 3 4 5]", snap)
	}
}

func TestPublicStackCrashRecover(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	st := sys.NewStack("s", 1, WaitFree)
	st.Push(0, 7)
	st.Push(0, 8)
	sys.Crash(DropUnfenced, 1)
	st = sys.NewStack("s", 1, WaitFree)
	if rs := st.Recover(0); rs != nil {
		t.Fatalf("unexpected pending ops %v", rs)
	}
	if v, ok := st.Pop(0); !ok || v != 8 {
		t.Fatalf("pop after recovery = %d,%v", v, ok)
	}
}

func TestPublicHeap(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	h := sys.NewHeap("h", 1, Blocking, 32)
	h.Insert(0, 9)
	h.Insert(0, 3)
	h.Insert(0, 5)
	if v, ok := h.GetMin(0); !ok || v != 3 {
		t.Fatalf("min = %d,%v", v, ok)
	}
	sys.Crash(DropUnfenced, 1)
	h = sys.NewHeap("h", 1, Blocking, 32)
	if v, ok := h.DeleteMin(0); !ok || v != 3 {
		t.Fatalf("recovered min = %d,%v", v, ok)
	}
	if h.Len() != 2 {
		t.Fatalf("len = %d", h.Len())
	}
}

func TestPublicObjectCounter(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	c := sys.NewObject("c", 4, WaitFree, counterObj{})
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Invoke(tid, 1, 1, 0)
			}
		}(tid)
	}
	wg.Wait()
	if v := c.State().Load(0); v != 400 {
		t.Fatalf("counter = %d", v)
	}
}

// counterObj is a minimal user-defined Object exercising the public
// universal-construction API.
type counterObj struct{}

func (counterObj) StateWords() int { return 1 }
func (counterObj) Init(s State)    { s.Store(0, 0) }
func (counterObj) Apply(env *Env, r *Request) {
	old := env.State.Load(0)
	env.State.Store(0, old+r.A0)
	r.Ret = old
}

// beginOnly durably records thread 0's operation op(a0) on class of the
// system area named region — opened with the classes and payload its
// structure built it with — and runs nothing: the state a crash leaves right
// after the system recorded the invocation.
func beginOnly(sys *System, region string, classes, payload, class int, op, a0 uint64) {
	sysarea.New(sys.Heap(), region, 1, classes, Blocking, nil, payload).Begin(0, class, op, a0, 0)
}

func TestSysAreaDetectsInterruptedOp(t *testing.T) {
	// Simulate an op that crashed mid-flight by driving the sysArea
	// directly: begin without end, then crash, then Recover must resolve it.
	sys := New(Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("q", 1, Blocking)
	q.Enqueue(0, 1)
	// Mark an enqueue of 99 as in progress but never run it (as if the
	// crash hit right after the system recorded the invocation).
	beginOnly(sys, "q/sysarea", 2, 0, 0, OpEnqueue, 99)
	sys.Crash(DropUnfenced, 1)
	q = sys.NewQueue("q", 1, Blocking)
	if rs := q.Recover(0); len(rs) != 1 || rs[0].Op != OpEnqueue || rs[0].A0 != 99 || !rs[0].Certain {
		t.Fatalf("Recover = %+v", rs)
	}
	snap := q.Snapshot()
	if len(snap) != 2 || snap[1] != 99 {
		t.Fatalf("snapshot %v, want [1 99]", snap)
	}
	// Recovering again must be a no-op (the op is resolved).
	if q.Recover(0) != nil {
		t.Fatal("op resolved twice")
	}
}

func TestVolatileMode(t *testing.T) {
	sys := NewOn(pmem.NewHeap(pmem.Config{Mode: pmem.ModeVolatile}))
	q := sys.NewQueue("q", 2, Blocking)
	q.Enqueue(0, 1)
	if v, ok := q.Dequeue(0); !ok || v != 1 {
		t.Fatalf("dequeue = %d,%v", v, ok)
	}
	if s := sys.Stats(); s.Pwbs != 0 {
		t.Fatalf("volatile mode issued pwbs: %+v", s)
	}
}

func TestStatsCount(t *testing.T) {
	sys := New(Options{NoCost: true})
	q := sys.NewQueue("q", 1, Blocking)
	sys.ResetStats()
	q.Enqueue(0, 1)
	if s := sys.Stats(); s.Pwbs == 0 || s.Psyncs == 0 {
		t.Fatalf("missing persistence instructions: %+v", s)
	}
}

func TestPublicMap(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	m := sys.NewMap("kv", 2, Blocking, MapOptions{Shards: 4, Capacity: 256})
	m.Put(0, 10, 100)
	m.Put(1, 20, 200)
	m.Delete(0, 20)
	sys.Crash(DropUnfenced, 5)
	m = sys.NewMap("kv", 2, Blocking, MapOptions{Shards: 4, Capacity: 256})
	for tid := 0; tid < 2; tid++ {
		if m.Recover(tid) != nil {
			t.Fatalf("tid %d: nothing was in flight", tid)
		}
	}
	if v, ok := m.Get(0, 10); !ok || v != 100 {
		t.Fatalf("key 10 = %d,%v", v, ok)
	}
	if _, ok := m.Get(0, 20); ok {
		t.Fatal("deleted key resurrected")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	count := 0
	m.Range(func(k, v uint64) bool { count++; return true })
	if count != 1 {
		t.Fatalf("range visited %d", count)
	}
}

// A Recoverable's op code is the Object's alone: the system-area record
// gives no code a meaning of its own, so even 0 and codes with bit 63 set —
// the values a record marker would take — run, and a crash at any persistence
// event of their Invoke or of their Submit+Flush leaves them for Recover to
// resolve exactly once.
func TestRecoverableRecoversAnyOpCode(t *testing.T) {
	for _, op := range []uint64{0, 1 << 63, 1<<63 | 1000, ^uint64(0)} {
		for _, path := range []string{"Invoke", "Submit"} {
			t.Run(fmt.Sprintf("%s/%#x", path, op), func(t *testing.T) {
				oo := ObjectOptions{VecCap: 4}
				crashes := 0
				for k := int64(1); ; k++ {
					sys := New(Options{CrashTesting: true, NoCost: true})
					r := sys.NewObject("o", 1, Blocking, counterObj{}, oo)
					r.Invoke(0, 1, 5, 0)
					if !crashIn(sys, k, DropUnfenced, func() {
						if path == "Invoke" {
							r.Invoke(0, op, 7, 0)
						} else {
							r.Submit(0, op, 7, 0)
							r.Flush(0)
						}
					}) {
						break
					}
					crashes++
					r = sys.NewObject("o", 1, Blocking, counterObj{}, oo)
					want := []Resolved{{Op: op, A0: 7, Result: 5, Certain: true}}
					if out := r.Recover(0); !reflect.DeepEqual(out, want) {
						t.Fatalf("crash at event %d: Recover = %+v, want %+v", k, out, want)
					}
					if again := r.Recover(0); again != nil {
						t.Fatalf("crash at event %d: second Recover = %+v", k, again)
					}
					if got := r.Invoke(0, op, 1, 0); got != 12 {
						t.Fatalf("crash at event %d: counter = %d after recovery, want 12", k, got)
					}
				}
				if crashes == 0 {
					t.Fatalf("%s(op %#x) issued no persistence event", path, op)
				}
			})
		}
	}
}
