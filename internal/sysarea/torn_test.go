package sysarea_test

import (
	"fmt"
	"reflect"
	"testing"

	"pcomb"
	"pcomb/internal/core"
	"pcomb/internal/fabric"
	"pcomb/internal/hashmap"
	"pcomb/internal/queue"
	"pcomb/internal/sysarea"
)

// A subject is one structure built on a system area, driven through its own
// API. Every class's operation changes total() by exactly +1 or -1, so an
// acknowledged operation that was dropped, or one applied twice, shows as a
// wrong total.
type subject struct {
	name    string
	threads int
	classes int
	region  string // the system area's region name
	open    func(*pcomb.System) handle
}

type handle struct {
	tid     func(class int) int                 // the thread whose call lands on class
	rec     func(class int) (op, a0, a1 uint64) // what that call records
	run     func(class int) uint64              // make the call; its response
	delta   func(class int) int
	total   func() int
	recover func(tid int) []sysarea.Resolved
	close   func() // before the heap crashes under the structure
}

func tid0(int) int  { return 0 }
func noop()         {}
func plus1(int) int { return 1 }

// enqDeq is the ±1 of a structure whose first half of classes enqueue.
func enqDeq(enqClasses int) func(int) int {
	return func(class int) int {
		if class < enqClasses {
			return 1
		}
		return -1
	}
}

func queueSubject(name string, kind pcomb.Kind) subject {
	return subject{name: name, threads: 1, classes: 2, region: "t/sysarea", open: func(s *pcomb.System) handle {
		q := s.NewQueue("t", 1, kind, pcomb.QueueOptions{Capacity: 1 << 10})
		return handle{
			tid: tid0,
			rec: func(class int) (uint64, uint64, uint64) {
				if class == 0 {
					return pcomb.OpEnqueue, 7, 0
				}
				return pcomb.OpDequeue, 0, 0
			},
			run: func(class int) uint64 {
				if class == 0 {
					q.Enqueue(0, 7)
					return queue.EnqOK
				}
				v, _ := q.Dequeue(0)
				return v
			},
			delta: enqDeq(1), total: q.Len, recover: q.Recover, close: noop,
		}
	}}
}

// keyPerShard finds one key landing on each of n shards.
func keyPerShard(n int, shardOf func(uint64) int) []uint64 {
	keys := make([]uint64, n)
	for k, found := uint64(1), 0; found < n; k++ {
		if sh := shardOf(k); keys[sh] == 0 {
			keys[sh] = k
			found++
		}
	}
	return keys
}

func sum(rng func(func(k, v uint64) bool)) int {
	t := 0
	rng(func(_, v uint64) bool { t += int(v); return true })
	return t
}

var subjects = []subject{
	queueSubject("Queue/PB", pcomb.Blocking),
	queueSubject("Queue/PWF", pcomb.WaitFree),
	{name: "Map", threads: 1, classes: 2, region: "t/hashmap.sys", open: func(s *pcomb.System) handle {
		m := hashmap.NewWith(s.Heap(), "t", 1, hashmap.Blocking, hashmap.Options{Shards: 2, Capacity: 64})
		keys := keyPerShard(2, m.ShardOf)
		return handle{
			tid:   tid0,
			rec:   func(class int) (uint64, uint64, uint64) { return hashmap.OpAdd, keys[class], 1 },
			run:   func(class int) uint64 { return m.Add(0, keys[class], 1) },
			delta: plus1, total: func() int { return sum(m.Range) }, recover: m.Recover, close: noop,
		}
	}},
	{name: "ShardedMap", threads: 1, classes: 2, region: "t/fabric.sys", open: func(s *pcomb.System) handle {
		m := fabric.New(s.Heap(), "t", 1, fabric.Options{Shards: 2, Kind: fabric.WaitFree})
		keys := keyPerShard(2, m.ShardOf)
		return handle{
			tid:   tid0,
			rec:   func(class int) (uint64, uint64, uint64) { return fabric.OpAdd, keys[class], 1 },
			run:   func(class int) uint64 { return m.Add(0, keys[class], 1) },
			delta: plus1, total: func() int { return sum(m.Range) }, recover: m.Recover, close: m.Close,
		}
	}},
	// Two sub-queues, two threads: after a re-open thread t's cursor is at
	// sub-queue t, so thread 0 enqueues on classes 0 then 1 (and is back at
	// 0), and thread t's dequeue probes sub-queue t first (class 2+t) — which
	// the test keeps non-empty. runAll checks the classes really moved.
	{name: "FabricQueue", threads: 2, classes: 4, region: "t/fabq.sys", open: func(s *pcomb.System) handle {
		q := fabric.NewQueue(s.Heap(), "t", 2, queue.Blocking, 2, queue.Options{Capacity: 1 << 10})
		return handle{
			tid: func(class int) int {
				if class < 2 {
					return 0
				}
				return class - 2
			},
			rec: func(class int) (uint64, uint64, uint64) {
				if class < 2 {
					return queue.OpEnq, 7, 0
				}
				return queue.OpDeq, 0, 0
			},
			run: func(class int) uint64 {
				if class < 2 {
					q.Enqueue(0, 7)
					return queue.EnqOK
				}
				v, _ := q.Dequeue(class - 2)
				return v
			},
			delta: enqDeq(2), total: q.Len, recover: q.Recover, close: noop,
		}
	}},
	{name: "Counter", threads: 2, classes: 2, region: "t/fabcnt.sys", open: func(s *pcomb.System) handle {
		c := fabric.NewCounter(s.Heap(), "t", 2, fabric.Blocking, 2)
		return handle{
			tid:   func(class int) int { return class },
			rec:   func(int) (uint64, uint64, uint64) { return core.OpCounterAdd, 1, 0 },
			run:   func(class int) uint64 { return c.Add(class, 1) },
			delta: plus1, total: func() int { return int(c.Value()) }, recover: c.Recover, close: noop,
		}
	}},
}

// run is one torn-state scenario on one subject.
type run struct {
	t    *testing.T
	sub  subject
	sys  *pcomb.System
	h    handle
	want int // total() the acknowledged and recovered operations add up to
}

func start(t *testing.T, sub subject) *run {
	r := &run{t: t, sub: sub, sys: pcomb.New(pcomb.Options{CrashTesting: true, NoCost: true})}
	r.h = sub.open(r.sys)
	// Some history first: counters of both parities, and every queue left
	// with something to dequeue (each class once, the first half twice).
	for i := 0; i < 3; i++ {
		r.ackUpTo(sub.classes / 2)
		r.ackUpTo(sub.classes)
	}
	return r
}

// ackUpTo acknowledges one operation on each class below n, in class order
// (the order the FabricQueue's cursors need).
func (r *run) ackUpTo(n int) {
	r.t.Helper()
	for class := 0; class < n; class++ {
		r.ack(class)
	}
}

// view is the test's own window on the subject's system area.
func (r *run) view() *sysarea.Area {
	return sysarea.New(r.sys.Heap(), r.sub.region, r.sub.threads, make([]core.Protocol, r.sub.classes), nil)
}

// ack runs class's operation to completion: it is acknowledged, so its effect
// must be there from now on, once.
func (r *run) ack(class int) uint64 {
	r.t.Helper()
	v, tid := r.view(), r.h.tid(class)
	before := v.Seq(tid, class)
	ret := r.h.run(class)
	if v.Seq(tid, class) != before+1 {
		r.t.Fatalf("the call meant for class %d did not run on it", class)
	}
	r.want += r.h.delta(class)
	return ret
}

// reopen kills the process at quiescence and re-opens the structure; it
// returns what Recover reported, all threads together.
func (r *run) reopen() []sysarea.Resolved {
	r.h.close()
	r.sys.Crash(pcomb.DropUnfenced, 1)
	r.h = r.sub.open(r.sys)
	var out []sysarea.Resolved
	for tid := 0; tid < r.sub.threads; tid++ {
		out = append(out, r.h.recover(tid)...)
	}
	return out
}

// finish runs one more operation on every class and audits the total.
func (r *run) finish() {
	r.t.Helper()
	r.ackUpTo(r.sub.classes)
	if got := r.h.total(); got != r.want {
		r.t.Fatalf("total = %d, want %d: an acknowledged operation was lost or applied twice", got, r.want)
	}
	r.h.close()
}

// TestTornPrefix leaves the system area in every state a process death can:
// after k of the n stores of Begin (the operation never ran), and after the
// operation ran but before End's one store. It re-opens, recovers, runs one
// more operation per class, and checks nothing acknowledged was lost or
// applied twice.
func TestTornPrefix(t *testing.T) {
	for _, sub := range subjects {
		for class := 0; class < sub.classes; class++ {
			for k := 0; k <= sysarea.BeginStores; k++ {
				t.Run(fmt.Sprintf("%s/class%d/begin%d", sub.name, class, k), func(t *testing.T) {
					r := start(t, sub)
					op, a0, a1 := r.h.rec(class)
					r.view().BeginPrefix(r.h.tid(class), class, op, a0, a1, k)
					rs := r.reopen()
					switch len(rs) {
					case 0: // the record never opened: the operation never started
					case 1: // it opened: recovery ran the operation, once
						if rs[0].Op != op || rs[0].A0 != a0 || rs[0].A1 != a1 || !rs[0].Certain {
							t.Fatalf("recovered %+v, want op %d(%d,%d)", rs[0], op, a0, a1)
						}
						r.want += r.h.delta(class)
					default:
						t.Fatalf("recovered %d operations from one record: %+v", len(rs), rs)
					}
					if again := r.reopen(); again != nil {
						t.Fatalf("second recovery resolved %+v again", again)
					}
					r.finish()
				})
			}
			t.Run(fmt.Sprintf("%s/class%d/end0", sub.name, class), func(t *testing.T) {
				r := start(t, sub)
				op, a0, a1 := r.h.rec(class)
				r.ackUpTo(class)
				ret := r.ack(class)
				r.view().Reopen(r.h.tid(class))
				want := []sysarea.Resolved{{Op: op, A0: a0, A1: a1, Result: ret, Certain: true}}
				if rs := r.reopen(); !reflect.DeepEqual(rs, want) {
					t.Fatalf("recovered %+v, want the acknowledged response %+v", rs, want)
				}
				r.finish()
			})
		}
	}
}

// The two reproductions that found the ordering hole, as an operator would
// hit it: the process dies after the FIRST store of an operation's Begin.
// When that store was the sequence counter (the order before this package),
// recovery saw nothing pending, the next operation drew a sequence number of
// the already-served parity, returned normally, and was silently dropped.

func TestTornFirstStoreThenEnqueue(t *testing.T) {
	sys := pcomb.New(pcomb.Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("q", 1, pcomb.Blocking)
	q.Enqueue(0, 11)
	sysarea.New(sys.Heap(), "q/sysarea", 1, make([]core.Protocol, 2), nil).
		BeginPrefix(0, 0, pcomb.OpEnqueue, 22, 0, 1)
	sys.Crash(pcomb.DropUnfenced, 1)

	q = sys.NewQueue("q", 1, pcomb.Blocking)
	if rs := q.Recover(0); rs != nil {
		t.Fatalf("Recover = %+v, want nothing pending", rs)
	}
	q.Enqueue(0, 22)
	if got := q.Snapshot(); !reflect.DeepEqual(got, []uint64{11, 22}) {
		t.Fatalf("Snapshot = %v after Enqueue(22) returned, want [11 22]", got)
	}
}

func TestTornFirstStoreThenPut(t *testing.T) {
	sys := pcomb.New(pcomb.Options{CrashTesting: true, NoCost: true})
	o := pcomb.MapOptions{Shards: 1}
	m := sys.NewMap("m", 1, pcomb.Blocking, o)
	m.Put(0, 1, 11)
	sysarea.New(sys.Heap(), "m/hashmap.sys", 1, make([]core.Protocol, 1), nil).
		BeginPrefix(0, 0, pcomb.OpPut, 2, 22, 1)
	sys.Crash(pcomb.DropUnfenced, 1)

	m = sys.NewMap("m", 1, pcomb.Blocking, o)
	if rs := m.Recover(0); rs != nil {
		t.Fatalf("Recover = %+v, want nothing pending", rs)
	}
	m.Put(0, 2, 22)
	if v, ok := m.Get(0, 2); !ok || v != 22 {
		t.Fatalf("Get(2) = %d,%v after Put(2, 22) returned, want 22", v, ok)
	}
}
