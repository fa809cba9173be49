package sysarea_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pcomb"
	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/queue"
	"pcomb/internal/sysarea"
)

// A subject is one structure built on a system area, driven through its own
// API. Every class's operation changes total() by a fixed nonzero delta, so
// an acknowledged operation that was dropped, or one applied twice, shows as
// a wrong total.
type subject struct {
	name    string
	threads int
	classes int
	region  string // the system area's region name
	payload int    // the system area's payload: the structure's VecCap
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

	// A multi-op commit by thread 0, on subjects with a payload above 1: the
	// ops it records (in group order) and their classes, how to run it
	// through the structure's API (its responses, in group order), and how it
	// moves total().
	vops    []core.VecOp
	classOf func(int, core.VecOp) int
	commit  func() []uint64
	vdelta  int
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

// queueSubject is a queue; with vecCap > 1 its multi-op commit is a vector of
// two enqueues (one group).
func queueSubject(name string, kind pcomb.Kind, vecCap int) subject {
	return subject{name: name, threads: 1, classes: 2, region: "t/sysarea", payload: vecCap, open: func(s *pcomb.System) handle {
		q := s.NewQueue("t", 1, kind, pcomb.QueueOptions{Capacity: 1 << 10, VecCap: vecCap})
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
			vops:    []core.VecOp{{Op: pcomb.OpEnqueue, A0: 7}, {Op: pcomb.OpEnqueue, A0: 7}},
			classOf: func(int, core.VecOp) int { return 0 },
			commit: func() []uint64 {
				a, b := q.SubmitEnqueue(0, 7), q.SubmitEnqueue(0, 7)
				q.Flush(0)
				return []uint64{a.Wait(), b.Wait()}
			},
			vdelta: 2,
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

// mapSubject is a two-shard map; with vecCap > 1 its multi-op commit is a
// flush window of one Add per shard (two groups).
func mapSubject(name string, vecCap int) subject {
	return subject{name: name, threads: 1, classes: 2, region: "t/hashmap.sys", payload: vecCap, open: func(s *pcomb.System) handle {
		m := hashmap.NewWith(s.Heap(), "t", 1, hashmap.Blocking, hashmap.Options{Shards: 2, Capacity: 64, VecCap: vecCap})
		keys := keyPerShard(2, m.ShardOf)
		return handle{
			tid:   tid0,
			rec:   func(class int) (uint64, uint64, uint64) { return hashmap.OpAdd, keys[class], 1 },
			run:   func(class int) uint64 { return m.Add(0, keys[class], 1) },
			delta: plus1, total: func() int { return sum(m.Range) }, recover: m.Recover, close: noop,
			vops:    []core.VecOp{{Op: hashmap.OpAdd, A0: keys[0], A1: 1}, {Op: hashmap.OpAdd, A0: keys[1], A1: 1}},
			classOf: func(_ int, o core.VecOp) int { return m.ShardOf(o.A0) },
			commit: func() []uint64 {
				a, b := m.SubmitAdd(0, keys[0], 1), m.SubmitAdd(0, keys[1], 1)
				m.Flush(0)
				return []uint64{a.Wait(), b.Wait()}
			},
			vdelta: 2,
		}
	}}
}

// fabricSubject is a two-shard board map, as NewShardedMap builds it
// (payload: VecCap 16); its multi-op commit is a transfer between the shards
// (two groups). Its total is 2·to − from, so a whole transfer moves it by 3, a
// torn one by 1 or 2, a doubled one by 6, and no two lost operations cancel.
func fabricSubject(name string) subject {
	return subject{name: name, threads: 1, classes: 2, region: "t/hashmap.sys", payload: 16, open: func(s *pcomb.System) handle {
		m := hashmap.NewWith(s.Heap(), "t", 1, hashmap.WaitFree, hashmap.Options{Shards: 2, Board: true, VecCap: 16})
		keys := keyPerShard(2, m.ShardOf)
		val := func(k uint64) int { v, _ := m.Get(0, k); return int(v) }
		return handle{
			tid:   tid0,
			rec:   func(class int) (uint64, uint64, uint64) { return hashmap.OpAdd, keys[class], 1 },
			run:   func(class int) uint64 { return m.Add(0, keys[class], 1) },
			delta: func(class int) int { return 3*class - 1 },
			total: func() int { return 2*val(keys[1]) - val(keys[0]) }, recover: m.Recover, close: m.Close,
			vops:    []core.VecOp{{Op: hashmap.OpAdd, A0: keys[0], A1: ^uint64(0)}, {Op: hashmap.OpAdd, A0: keys[1], A1: 1}},
			classOf: func(_ int, o core.VecOp) int { return m.ShardOf(o.A0) },
			commit: func() []uint64 {
				from, to := m.TransferAdd(0, keys[0], keys[1], 1)
				return []uint64{from, to}
			},
			vdelta: 3,
		}
	}}
}

// counterSubject is a counter striped over a two-shard board map: thread t
// adds only to the key on shard t, so each thread has a class of its own and
// the count is the sum of the stripes (payload: a board's least VecCap, 2).
func counterSubject(name string) subject {
	return subject{name: name, threads: 2, classes: 2, region: "t/hashmap.sys", payload: 2, open: func(s *pcomb.System) handle {
		m := hashmap.NewWith(s.Heap(), "t", 2, hashmap.Blocking, hashmap.Options{Shards: 2, Board: true})
		keys := keyPerShard(2, m.ShardOf)
		return handle{
			tid:   func(class int) int { return class },
			rec:   func(class int) (uint64, uint64, uint64) { return hashmap.OpAdd, keys[class], 1 },
			run:   func(class int) uint64 { return m.Add(class, keys[class], 1) },
			delta: plus1, total: func() int { return sum(m.Range) }, recover: m.Recover, close: m.Close,
		}
	}}
}

// storeSubject is the RESP server's store: a one-instance map (class 0) and a
// queue (enqueues class 1, dequeues class 2) on one system area. Its total is
// the counter's value plus the queue's length, and its multi-op commit is a
// window of an INCRBY and an LPUSH: two groups on two structures.
func storeSubject(name string, kind pcomb.Kind) subject {
	const flushOps, key = 4, 7
	return subject{name: name, threads: 1, classes: 3, region: "srv/sysarea", payload: flushOps + 1, open: func(s *pcomb.System) handle {
		st := pcomb.NewServerStoreOn(s.Heap(), pcomb.ServerOptions{Threads: 1, Kind: kind, FlushOps: flushOps, QueueCapacity: 1 << 10})
		return handle{
			tid: tid0,
			run: func(class int) uint64 { // a one-command window
				switch class {
				case 0:
					return st.IncrBy(0, key, 1).Value()
				case 1:
					return st.LPush(0, 7).Value()
				}
				return st.RPop(0).Value()
			},
			delta:   func(class int) int { return 1 - class/2*2 },
			total:   func() int { v, _ := st.Map().Get(0, key); return int(v) + st.Queue().Len() },
			recover: func(tid int) []sysarea.Resolved { return st.Recover()[tid] },
			close:   noop,
			vops:    []core.VecOp{{Op: pcomb.OpAdd, A0: key, A1: 1}, {Op: pcomb.OpEnqueue, A0: 7}},
			classOf: func(i int, _ core.VecOp) int { return i },
			commit: func() []uint64 {
				a, b := st.IncrBy(0, key, 1), st.LPush(0, 7)
				st.Flush(0)
				return []uint64{a.Value(), b.Value()}
			},
			vdelta: 2,
		}
	}}
}

var subjects = []subject{
	queueSubject("Queue/PB", pcomb.Blocking, 0),
	queueSubject("Queue/PWF", pcomb.WaitFree, 0),
	mapSubject("Map", 0),
	fabricSubject("ShardedMap"),
	counterSubject("Counter"),
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

// ackUpTo acknowledges one operation on each class below n, in class order.
func (r *run) ackUpTo(n int) {
	r.t.Helper()
	for class := 0; class < n; class++ {
		r.ack(class)
	}
}

// view is the test's own window on the subject's system area.
func (r *run) view() *sysarea.Area {
	return sysarea.New(r.sys.Heap(), r.sub.region, r.sub.threads, r.sub.classes, core.Blocking, nil, r.sub.payload)
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

// input is one commit tearEveryPrefix tears: thread tid's next commit of
// ops (in group order) and their classes, how to run it through the
// structure's API (its responses, in group order), and how it moves total().
type input struct {
	tid     int
	ops     []core.VecOp
	classOf func(int, core.VecOp) int
	run     func() []uint64
	delta   int
}

// scalar is class's operation: a one-op commit.
func (r *run) scalar(class int) input {
	op, a0, a1 := r.h.rec(class)
	return input{
		tid:     r.h.tid(class),
		ops:     []core.VecOp{{Op: op, A0: a0, A1: a1}},
		classOf: func(int, core.VecOp) int { return class },
		run:     func() []uint64 { return []uint64{r.h.run(class)} },
		delta:   r.h.delta(class),
	}
}

// vector is thread 0's multi-op commit.
func (r *run) vector() input {
	return input{tid: 0, ops: r.h.vops, classOf: r.h.classOf, run: r.h.commit, delta: r.h.vdelta}
}

// tearEveryPrefix leaves the system area in every state a process death can
// while the commit in(r) is made, in the order the commit reaches them
// (name/stepK): after each prefix of its record's n stores (K = 0..n), after
// the record and the announcements of its first g of G groups (K = n+g), and
// after End's one store too (K = n+G+1); and once more after the structure's
// API ran it but before End (name/end0). It re-opens, recovers, runs one more
// operation per class, and checks that the commit came back whole or not at
// all, exactly once, that a group which had run was only asked for its
// responses, and that nothing acknowledged was lost or applied twice.
func tearEveryPrefix(t *testing.T, sub subject, name, step string, in func(*run) input) {
	probe := start(t, sub)
	x := in(probe)
	n := probe.view().CommitPrefix(x.tid, x.ops, x.classOf, 0)
	probe.h.close()
	// classes are the groups' classes in group order, and upTo[g] is how
	// many of x.ops (laid out in group order) the first g groups hold.
	var classes, upTo []int
	for i, o := range x.ops {
		if c := x.classOf(i, o); !slices.Contains(classes, c) {
			classes = append(classes, c)
			upTo = append(upTo, i)
		}
	}
	upTo = append(upTo, len(x.ops))
	groups := len(classes)
	for k := 0; k <= n+groups+1; k++ {
		t.Run(fmt.Sprintf("%s/%s%d", name, step, k), func(t *testing.T) {
			r := start(t, sub)
			x := in(r)
			var ran []sysarea.Resolved // the responses of the groups that ran
			switch g := k - n; {
			case g <= 0:
				r.view().CommitPrefix(x.tid, x.ops, x.classOf, k)
			case g <= groups:
				// The first g groups run on their own and are recovered,
				// then their counters go back so that the whole record is
				// committed under the sequence numbers they ran with.
				r.view().CommitPrefix(x.tid, x.ops[:upTo[g]], x.classOf, n)
				if ran = r.reopen(); len(ran) != upTo[g] {
					t.Fatalf("the first %d groups recovered as %+v", g, ran)
				}
				v := r.view()
				for _, c := range classes[:g] {
					v.Rewind(x.tid, c)
				}
				v.CommitPrefix(x.tid, x.ops, x.classOf, n)
			default:
				x.run()
				r.want += x.delta
			}
			rs := r.reopen()
			switch {
			case len(rs) == 0 && k <= n: // the record never reached its commit point
			case len(rs) == 0 && k > n+groups: // it closed: nothing to resolve
			case len(rs) == len(x.ops) && k <= n+groups: // it is open: recovery ran every group, once
				for i, o := range x.ops {
					if rs[i].Class != x.classOf(i, o) || rs[i].Op != o.Op || rs[i].A0 != o.A0 || rs[i].A1 != o.A1 || !rs[i].Certain {
						t.Fatalf("recovered %+v, want %+v", rs, x.ops)
					}
				}
				for i, o := range ran {
					if rs[i].Result != o.Result {
						t.Fatalf("recovered %+v, want the responses %+v of the groups that ran", rs, ran)
					}
				}
				r.want += x.delta
			default:
				t.Fatalf("recovered %d of the commit's %d operations: %+v", len(rs), len(x.ops), rs)
			}
			if again := r.reopen(); again != nil {
				t.Fatalf("second recovery resolved %+v again", again)
			}
			r.finish()
		})
	}
	t.Run(name+"/end0", func(t *testing.T) {
		r := start(t, sub)
		x := in(r)
		rets := x.run()
		r.want += x.delta
		r.view().Reopen(x.tid)
		var want []sysarea.Resolved
		for i, o := range x.ops {
			want = append(want, sysarea.Resolved{Class: x.classOf(i, o), Op: o.Op, A0: o.A0, A1: o.A1, Result: rets[i], Certain: true})
		}
		if rs := r.reopen(); !reflect.DeepEqual(rs, want) {
			t.Fatalf("recovered %+v, want the acknowledged responses %+v", rs, want)
		}
		if again := r.reopen(); again != nil {
			t.Fatalf("second recovery resolved %+v again", again)
		}
		r.finish()
	})
}

// TestTornPrefix is TestTornCommitPrefix's one-op input: every class's scalar
// operation, torn after each prefix of its record (beginK) and before End's
// one store (end0).
func TestTornPrefix(t *testing.T) {
	for _, sub := range subjects {
		for class := 0; class < sub.classes; class++ {
			name := fmt.Sprintf("%s/class%d", sub.name, class)
			tearEveryPrefix(t, sub, name, "begin", func(r *run) input { return r.scalar(class) })
		}
	}
}

// commitSubjects carry a multi-op commit: a one-group vector, a map flush
// window over two shards, a transfer over the two shards of a board map, and
// a server window over the map and the queue.
var commitSubjects = []subject{
	queueSubject("Queue/vector", pcomb.Blocking, 4),
	mapSubject("Map/window", 4),
	fabricSubject("ShardedMap/transfer"),
	storeSubject("ServerStore/window", pcomb.Blocking),
	storeSubject("ServerStore/window/PWF", pcomb.WaitFree),
}

// TestTornCommitPrefix tears thread 0's next multi-op commit after each
// prefix of its record (commitK) and before End's one store (end0).
func TestTornCommitPrefix(t *testing.T) {
	for _, sub := range commitSubjects {
		tearEveryPrefix(t, sub, sub.name, "commit", (*run).vector)
	}
}

// The two reproductions that found the ordering hole, as an operator would
// hit it: the process dies after the FIRST store of an operation's Begin.
// When that store was the sequence counter (the order before this package),
// recovery saw nothing pending, the next operation drew a sequence number of
// the already-served parity, returned normally, and was silently dropped.

// firstStore applies the first store of thread 0's one-op commit of o on
// class of the system area named region, built with classes classes.
func firstStore(sys *pcomb.System, region string, classes, class int, o core.VecOp) {
	sysarea.New(sys.Heap(), region, 1, classes, core.Blocking, nil, 0).
		CommitPrefix(0, []core.VecOp{o}, func(int, core.VecOp) int { return class }, 1)
}

func TestTornFirstStoreThenEnqueue(t *testing.T) {
	sys := pcomb.New(pcomb.Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("q", 1, pcomb.Blocking)
	q.Enqueue(0, 11)
	firstStore(sys, "q/sysarea", 2, 0, core.VecOp{Op: pcomb.OpEnqueue, A0: 22})
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
	firstStore(sys, "m/hashmap.sys", 1, 0, core.VecOp{Op: pcomb.OpPut, A0: 2, A1: 22})
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
