package fabric

import (
	"fmt"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/sysarea"
)

// Queue is a sharded relaxed-FIFO queue behind the fabric router: S
// independent recoverable sub-queues, enqueues spread round-robin per
// thread, dequeues scan from the thread's cursor until a non-empty
// sub-queue is found. Elements of one sub-queue stay FIFO; across
// sub-queues ordering is relaxed (the usual k-FIFO trade: S-way more
// combining parallelism for bounded reordering). Every operation remains
// detectably recoverable through the system area, with one sequence-counter
// class per (sub-queue, side): sub-queue sh enqueues on class sh and dequeues
// on class nsh+sh.
type Queue struct {
	n, nsh int
	shards []*queue.Queue
	sys    *sysarea.Area

	cursor []paddedInt // volatile per-thread round-robin cursor
}

type paddedInt struct {
	v int
	_ [7]uint64
}

// NewQueue creates (or re-opens) a sharded queue for n threads across nsh
// sub-queues (0 = 4).
func NewQueue(h *pmem.Heap, name string, n int, kind queue.Kind, nsh int, opt queue.Options) *Queue {
	if nsh <= 0 {
		nsh = 4
	}
	q := &Queue{n: n, nsh: nsh}
	insts := make([]core.Protocol, 2*nsh)
	for s := 0; s < nsh; s++ {
		sh := queue.New(h, fmt.Sprintf("%s/qshard%d", name, s), n, kind, opt)
		q.shards = append(q.shards, sh)
		insts[s], insts[nsh+s] = sh.EnqProtocol(), sh.DeqProtocol()
	}
	q.sys = sysarea.New(h, name+"/fabq.sys", n, insts, nil, 0)
	q.cursor = make([]paddedInt, n)
	for i := range q.cursor {
		q.cursor[i].v = i % nsh // stagger starting shards across threads
	}
	return q
}

// Shards returns the sub-queue count.
func (q *Queue) Shards() int { return q.nsh }

// Enqueue appends v to the next sub-queue of tid's round-robin cursor.
func (q *Queue) Enqueue(tid int, v uint64) {
	sh := q.cursor[tid].v
	q.cursor[tid].v = (sh + 1) % q.nsh
	q.sys.Invoke(tid, sh, queue.OpEnq, v, 0)
}

// Dequeue removes and returns an element, scanning sub-queues from tid's
// cursor; ok is false only when every sub-queue reported empty in one pass.
// Each probe is a real recoverable dequeue on its sub-queue.
func (q *Queue) Dequeue(tid int) (uint64, bool) {
	start := q.cursor[tid].v
	for i := 0; i < q.nsh; i++ {
		sh := (start + i) % q.nsh
		if v := q.sys.Invoke(tid, q.nsh+sh, queue.OpDeq, 0, 0); v != queue.Empty {
			q.cursor[tid].v = sh
			return v, true
		}
	}
	return 0, false
}

// Recover resolves tid's interrupted operation — exactly once — and repairs
// the touched sequence counter (sysarea.Area.Recover). Op is queue.OpEnq or
// queue.OpDeq; a dequeue's Result is the element or queue.Empty.
func (q *Queue) Recover(tid int) []sysarea.Resolved { return q.sys.Recover(tid) }

// Len returns the total element count across sub-queues. Quiescent use only.
func (q *Queue) Len() int {
	total := 0
	for _, sh := range q.shards {
		total += sh.Len()
	}
	return total
}
