package pcomb

import (
	"testing"
	"time"
)

// TestQueueEpochCrashRecover drives the public epoch-mode queue API through
// a crash: operations covered by a Sync survive, the open epoch's operations
// vanish wholesale, and Recover makes the reopened queue usable again.
func TestQueueEpochCrashRecover(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		sys := New(Options{CrashTesting: true, NoCost: true})
		q := sys.NewQueue("q", 2, kind, QueueOptions{Epoch: true})
		for i := uint64(1); i <= 8; i++ {
			q.Enqueue(0, i)
		}
		q.Sync()         // group commit: 1..8 durable
		q.Enqueue(0, 99) // open epoch: lost at the crash
		if v, ok := q.Dequeue(1); !ok || v != 1 {
			t.Fatalf("kind %d: dequeue = %d,%v; want 1", kind, v, ok)
		}

		sys.Crash(DropUnfenced, 1)
		q = sys.NewQueue("q", 2, kind, QueueOptions{Epoch: true})
		for tid := 0; tid < 2; tid++ {
			for _, r := range q.Recover(tid) {
				if r.Certain {
					t.Fatalf("kind %d: tid %d reported a certainly-unserved op; all ops completed", kind, tid)
				}
			}
		}
		q.Sync()

		// The dequeue of 1 and the enqueue of 99 were open-epoch: vanished.
		want := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		got := q.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("kind %d: recovered queue = %v, want %v", kind, got, want)
		}
		for i, v := range want {
			if got[i] != v {
				t.Fatalf("kind %d: recovered queue = %v, want %v", kind, got, want)
			}
		}

		// The realigned counters must support normal operation.
		q.Enqueue(0, 100)
		q.Sync()
		if v, ok := q.Dequeue(1); !ok || v != 1 {
			t.Fatalf("kind %d: post-recovery dequeue = %d,%v; want 1", kind, v, ok)
		}
	}
}

// TestQueueEpochWaitDurable exercises the background ticker via the public
// API: WaitDurable on a label read after the operation must block until a
// close covers it, then report durability.
func TestQueueEpochWaitDurable(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("q", 1, Blocking, QueueOptions{
		Epoch:         true,
		EpochInterval: 200 * time.Microsecond,
	})
	defer q.Close()
	q.Enqueue(0, 7)
	label := q.EpochNow()
	if !q.WaitDurable(label) {
		t.Fatal("WaitDurable reported a crash")
	}
	if q.EpochClosed() < label {
		t.Fatalf("EpochClosed() = %d after WaitDurable(%d)", q.EpochClosed(), label)
	}
}

// TestMapEpochCrashRecover is TestQueueEpochCrashRecover for the map API.
func TestMapEpochCrashRecover(t *testing.T) {
	for _, kind := range []Kind{Blocking, WaitFree} {
		sys := New(Options{CrashTesting: true, NoCost: true})
		m := sys.NewMap("m", 2, kind, MapOptions{Epoch: true})
		for k := uint64(1); k <= 8; k++ {
			m.Put(0, k, k*10)
		}
		m.Sync()
		m.Put(0, 9, 90) // open epoch: lost at the crash

		sys.Crash(DropUnfenced, 1)
		m = sys.NewMap("m", 2, kind, MapOptions{Epoch: true})
		for tid := 0; tid < 2; tid++ {
			m.Recover(tid)
		}
		m.Sync()

		for k := uint64(1); k <= 8; k++ {
			if v, ok := m.Get(1, k); !ok || v != k*10 {
				t.Fatalf("kind %d: Get(%d) = %d,%v after recovery; want %d", kind, k, v, ok, k*10)
			}
		}
		if _, ok := m.Get(1, 9); ok {
			t.Fatalf("kind %d: open-epoch Put(9) survived the crash", kind)
		}
		if prev, existed := m.Put(0, 5, 55); !existed || prev != 50 {
			t.Fatalf("kind %d: post-recovery Put = %d,%v; want 50,true", kind, prev, existed)
		}
	}
}
