package pcomb

import (
	"sync"
	"testing"

	lin "pcomb/internal/linearizability"
)

// TestPublicHistoryRecording exercises the exported History plumbing: a
// recorder installed through the public API must capture a concurrent
// workload that the durable-linearizability checker accepts, and the
// audit-extended history must reject a fabricated final state.
func TestPublicHistoryRecording(t *testing.T) {
	sys := New(Options{})
	const threads = 3
	q := sys.NewQueue("hq", threads, WaitFree)
	rec := NewHistory(threads)
	q.SetHistory(rec)

	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if (tid+i)%2 == 0 {
					q.Enqueue(tid, uint64(tid)<<8|uint64(i)+1)
				} else {
					q.Dequeue(tid)
				}
			}
		}(tid)
	}
	wg.Wait()

	hist := rec.Ops()
	if len(hist) != threads*4 {
		t.Fatalf("recorded %d operations, want %d", len(hist), threads*4)
	}
	var audits []lin.Op
	for _, v := range q.Snapshot() {
		audits = append(audits, lin.Op{Kind: lin.KindDeq, Out: v})
	}
	audits = append(audits, lin.Op{Kind: lin.KindDeq, Out: lin.EmptyOut})
	res := lin.CheckDurable(lin.QueueModel{}, lin.AppendAudits(hist, audits...), lin.Opts{})
	if res.Outcome != lin.Ok {
		t.Fatalf("recorded history not linearizable: %+v (diag %s)", res, res.Diag)
	}

	// A bogus audit (an element the queue never held) must be rejected.
	bad := lin.AppendAudits(hist, lin.Op{Kind: lin.KindDeq, Out: 0xdead}, lin.Op{Kind: lin.KindDeq, Out: lin.EmptyOut})
	if res := lin.CheckDurable(lin.QueueModel{}, bad, lin.Opts{}); res.Outcome != lin.Violation {
		t.Fatalf("fabricated audit accepted: %+v", res)
	}

	// Detaching stops recording.
	q.SetHistory(nil)
	q.Enqueue(0, 99)
	if got := rec.Len(); got != threads*4 {
		t.Fatalf("recorder grew to %d after detach", got)
	}

	// So does a nil *History: in the interface SetHistory takes it is not
	// nil, and must not be installed as a log to dereference.
	q.SetHistory(rec)
	var none *History
	q.SetHistory(none)
	q.Enqueue(0, 100)
	if got := rec.Len(); got != threads*4 {
		t.Fatalf("recorder grew to %d after detach by nil *History", got)
	}
}
