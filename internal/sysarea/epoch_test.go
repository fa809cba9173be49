package sysarea_test

import (
	"reflect"
	"testing"

	"pcomb"
	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/sysarea"
)

// Under an epoch a vector's record is durable while the round that serves it
// waits in the open epoch. In these tests a thread flushes one vector, syncs,
// flushes a second and dies before End; the power cut then drops the open
// epoch. Recovery must settle the second vector and never re-perform the
// first, whose one acknowledged effect must be there exactly once: it takes
// the ops from the record's payload (the announcement block is volatile and
// holds nothing after the crash), so only the open record's vector is settled.

var protocols = []struct {
	name string
	map_ hashmap.Kind
	pub  pcomb.Kind
}{{"PB", hashmap.Blocking, pcomb.Blocking}, {"PWF", hashmap.WaitFree, pcomb.WaitFree}}

// dieBeforeEnd leaves thread 0's last commit performed but its record open,
// then cuts the power: the open epoch is lost.
func dieBeforeEnd(sys *pcomb.System, region string, classes int) {
	sysarea.New(sys.Heap(), region, 1, classes, core.Blocking, nil, 4).Reopen(0)
	sys.Crash(pcomb.DropUnfenced, 1)
}

// settled checks that Recover settled nothing or exactly the in-flight op —
// never an older one — and reports whether that op is certainly applied
// (applied) or may be either way (!known).
func settled(t *testing.T, rs []sysarea.Resolved, inflight sysarea.Resolved) (applied, known bool) {
	t.Helper()
	switch {
	case len(rs) == 0:
		return false, true
	case len(rs) == 1:
		got := rs[0]
		got.Result, got.Certain = 0, false
		if reflect.DeepEqual(got, inflight) {
			return rs[0].Certain, rs[0].Certain
		}
	}
	t.Fatalf("Recover = %+v, want nothing or the in-flight %+v", rs, inflight)
	return false, false
}

func TestEpochMapWindowNeverReplaysAnOlderOne(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			sys := pcomb.New(pcomb.Options{CrashTesting: true, NoCost: true})
			o := hashmap.Options{Shards: 1, VecCap: 4, Epoch: true}
			m := hashmap.NewWith(sys.Heap(), "t", 1, p.map_, o)
			m.SubmitAdd(0, 7, 1)
			m.Flush(0)
			m.Sync()
			m.SubmitPut(0, 9, 5)
			m.Flush(0)
			dieBeforeEnd(sys, "t/hashmap.sys", 1)

			m = hashmap.NewWith(sys.Heap(), "t", 1, p.map_, o)
			applied, known := settled(t, m.Recover(0), sysarea.Resolved{Op: hashmap.OpPut, A0: 9, A1: 5})
			if v, _ := m.Get(0, 7); v != 1 {
				t.Fatalf("key 7 = %d after one acknowledged Add(7, 1)", v)
			}
			if v, ok := m.Get(0, 9); known && (ok != applied || ok && v != 5) {
				t.Fatalf("key 9 = %d,%v; the in-flight Put(9, 5) applied: %v", v, ok, applied)
			}
		})
	}
}

func TestEpochQueueVectorNeverReplaysAnOlderOne(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			sys := pcomb.New(pcomb.Options{CrashTesting: true, NoCost: true})
			o := pcomb.QueueOptions{VecCap: 4, Epoch: true}
			q := sys.NewQueue("t", 1, p.pub, o)
			q.SubmitEnqueue(0, 7)
			q.Flush(0)
			q.Sync()
			q.SubmitEnqueue(0, 9)
			q.Flush(0)
			dieBeforeEnd(sys, "t/sysarea", 2)

			q = sys.NewQueue("t", 1, p.pub, o)
			applied, known := settled(t, q.Recover(0), sysarea.Resolved{Op: pcomb.OpEnqueue, A0: 9})
			got := q.Snapshot()
			ok := reflect.DeepEqual(got, []uint64{7}) && (!applied || !known) ||
				reflect.DeepEqual(got, []uint64{7, 9}) && (applied || !known)
			if !ok {
				t.Fatalf("queue = %v after one acknowledged Enqueue(7); the in-flight Enqueue(9) applied: %v (known %v)", got, applied, known)
			}
		})
	}
}
