package pcomb

import (
	"pcomb/internal/core"
	"pcomb/internal/vecbatch"
)

// Future is the handle of an operation submitted through the async
// pipelined API (Submit*). Wait returns the operation's response, flushing
// the submitting thread's staged batch first if necessary; Done reports
// whether the response is already available. Futures must be used by the
// submitting thread and expire once two further flushes have completed.
type Future = vecbatch.Future

// ---- Queue ----

// SubmitEnqueue stages an enqueue of v on the async pipelined path
// (requires QueueOptions.VecCap > 1). The staged batch commits when it
// reaches VecCap operations, on Flush/Wait, or — to preserve the thread's
// program order — when a dequeue is submitted. Until its batch's Flush has
// recorded it durably, a staged op is lost wholesale by a crash: pipelining
// trades per-op commit for per-batch commit. A flushed batch is one
// system-area record that carries its operations, announced as one vector,
// so Recover resolves an interrupted one as a whole — from the record, not
// the argument ring — one Resolved per op in submission order. (A Map's
// flush is the same record with one group per shard: all or nothing too.)
func (q *Queue) SubmitEnqueue(tid int, v uint64) Future {
	if q.deqPipe.Pending(tid) > 0 {
		q.deqPipe.Flush(tid)
	}
	return q.enqPipe.Submit(tid, core.VecOp{Op: OpEnqueue, A0: v})
}

// SubmitDequeue stages a dequeue (requires QueueOptions.VecCap > 1); the
// Future's Wait returns the dequeued value or Empty. Any staged enqueues
// flush first, preserving the thread's program order.
func (q *Queue) SubmitDequeue(tid int) Future {
	if q.enqPipe.Pending(tid) > 0 {
		q.enqPipe.Flush(tid)
	}
	return q.deqPipe.Submit(tid, core.VecOp{Op: OpDequeue})
}

// Flush commits thread tid's staged operations durably.
func (q *Queue) Flush(tid int) {
	q.enqPipe.Flush(tid)
	q.deqPipe.Flush(tid)
}

// Pending returns the number of staged, unflushed ops of tid (both classes).
func (q *Queue) Pending(tid int) int { return q.enqPipe.Pending(tid) + q.deqPipe.Pending(tid) }

// ---- Stack ----

// SubmitPush stages a push of v (requires StackOptions.VecCap > 1); see
// Queue.SubmitEnqueue for the async path's commit-point contract.
func (st *Stack) SubmitPush(tid int, v uint64) Future {
	return st.pipe.Submit(tid, core.VecOp{Op: OpPush, A0: v})
}

// SubmitPop stages a pop; the Future's Wait returns the popped value or
// Empty. Pushes and pops share one staged vector, so the combiner can run
// elimination inside the batch.
func (st *Stack) SubmitPop(tid int) Future {
	return st.pipe.Submit(tid, core.VecOp{Op: OpPop})
}

// Flush commits thread tid's staged operations durably.
func (st *Stack) Flush(tid int) { st.pipe.Flush(tid) }

// ---- Heap ----

// SubmitInsert stages an insert of key (requires HeapOptions.VecCap > 1);
// the Future's Wait returns 0 on success or Full. See Queue.SubmitEnqueue
// for the async path's commit-point contract.
func (h *Heap) SubmitInsert(tid int, key uint64) Future {
	return h.pipe.Submit(tid, core.VecOp{Op: OpInsert, A0: key})
}

// SubmitDeleteMin stages a delete-min; Wait returns the key or Empty.
func (h *Heap) SubmitDeleteMin(tid int) Future {
	return h.pipe.Submit(tid, core.VecOp{Op: OpDeleteMin})
}

// SubmitGetMin stages a get-min; Wait returns the key or Empty.
func (h *Heap) SubmitGetMin(tid int) Future {
	return h.pipe.Submit(tid, core.VecOp{Op: OpGetMin})
}

// Flush commits thread tid's staged operations durably.
func (h *Heap) Flush(tid int) { h.pipe.Flush(tid) }

// ---- Recoverable ----

// Submit stages one object operation on the async pipelined path (requires
// ObjectOptions.VecCap > 1; op must stay below 2^63). See
// Queue.SubmitEnqueue for the commit-point contract.
func (r *Recoverable) Submit(tid int, op, a0, a1 uint64) Future {
	return r.pipe.Submit(tid, core.VecOp{Op: op, A0: a0, A1: a1})
}

// Flush commits thread tid's staged operations durably.
func (r *Recoverable) Flush(tid int) { r.pipe.Flush(tid) }
