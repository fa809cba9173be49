package history

import (
	"sync"
	"testing"

	lin "pcomb/internal/linearizability"
)

func TestRecorderLifecycle(t *testing.T) {
	r := New(2)
	r.Begin(0, lin.KindEnq, 7, 0)
	r.End(0, 0)
	r.Begin(1, lin.KindDeq, 0, 0)
	// Thread 1 crashes mid-op; the cut lands, recovery resolves it.
	r.Cut(0)
	if r.Pending(1) != 1 {
		t.Fatalf("thread 1 must have one pending op, got %d", r.Pending(1))
	}
	if !r.Resolve(1, 7) {
		t.Fatal("resolve must find the pending op")
	}
	if r.Resolve(1, 7) {
		t.Fatal("resolve must fail with nothing pending")
	}
	ops := r.Ops()
	if len(ops) != 2 || r.Len() != 2 {
		t.Fatalf("want 2 ops, got %d", len(ops))
	}
	var completed, recovered int
	for _, op := range ops {
		switch op.Status {
		case lin.StatusCompleted:
			completed++
			if op.Return <= op.Call {
				t.Fatalf("completed op must have Call < Return: %+v", op)
			}
		case lin.StatusRecovered:
			recovered++
			if op.Out != 7 {
				t.Fatalf("recovered op must carry the recovered output: %+v", op)
			}
		}
	}
	if completed != 1 || recovered != 1 {
		t.Fatalf("want 1 completed + 1 recovered, got %d + %d", completed, recovered)
	}
}

func TestRecorderEndWithoutBegin(t *testing.T) {
	r := New(1)
	r.End(0, 3) // must not panic or record anything
	if r.Len() != 0 {
		t.Fatalf("orphan End must be dropped, got %d ops", r.Len())
	}
}

func TestRecorderConcurrentClock(t *testing.T) {
	const threads, per = 8, 200
	r := New(threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Begin(tid, lin.KindEnq, uint64(i), 0)
				r.End(tid, 0)
			}
		}(tid)
	}
	wg.Wait()
	ops := r.Ops()
	if len(ops) != threads*per {
		t.Fatalf("want %d ops, got %d", threads*per, len(ops))
	}
	seen := map[int64]bool{}
	for _, op := range ops {
		if op.Call >= op.Return {
			t.Fatalf("interval inverted: %+v", op)
		}
		if seen[op.Call] || seen[op.Return] {
			t.Fatalf("timestamps must be globally unique: %+v", op)
		}
		seen[op.Call], seen[op.Return] = true, true
	}
}

func TestRecorderHistoryChecks(t *testing.T) {
	// A recorded single-threaded run must pass the durable checker.
	r := New(1)
	r.Begin(0, lin.KindEnq, 10, 0)
	r.End(0, 0)
	r.Begin(0, lin.KindEnq, 11, 0)
	r.End(0, 0)
	r.Begin(0, lin.KindDeq, 0, 0)
	r.End(0, 10)
	r.Begin(0, lin.KindDeq, 0, 0) // crash mid-dequeue
	r.Cut(0)
	r.Resolve(0, 11)
	hist := lin.AppendAudits(r.Ops(), lin.Op{Kind: lin.KindDeq, Out: lin.EmptyOut})
	if res := lin.CheckDurable(lin.QueueModel{}, hist, lin.Opts{}); res.Outcome != lin.Ok {
		t.Fatalf("recorded history must check: %+v", res)
	}
}

// TestRecorderCutPinsEpochStamp: the first Cut of a round fixes the epoch
// stamp; completions labeled past it read volatile, and a later Cut (a second
// crash, after recovery's closes advanced the stamp) does not promote them.
func TestRecorderCutPinsEpochStamp(t *testing.T) {
	epoch := uint64(1)
	r := New(1)
	r.SetEpochClock(func() uint64 { return epoch })
	r.Begin(0, lin.KindEnq, 1, 0)
	r.End(0, 0) // epoch 1: closed before the crash
	epoch = 2
	r.Begin(0, lin.KindEnq, 2, 0)
	r.End(0, 0) // epoch 2: still open at the crash
	if ops := r.Ops(); ops[1].Status != lin.StatusCompleted {
		t.Fatalf("no cut yet, nothing may be downgraded: %+v", ops[1])
	}
	r.Cut(1)
	r.Cut(2)
	ops := r.Ops()
	if ops[0].Status != lin.StatusCompleted || ops[1].Status != lin.StatusVolatile {
		t.Fatalf("want completed, volatile; got %v, %v", ops[0].Status, ops[1].Status)
	}
}
