// Package queue implements the paper's recoverable queues.
//
// PBqueue (Section 5) uses two PBcomb instances — IE synchronizing
// enqueuers (state: tail) and ID synchronizing dequeuers (state: head) — so
// enqueues run concurrently with dequeues. Enqueue combiners splice nodes
// directly into the linked list and persist them; a volatile oldTail
// variable, advanced only after an enqueue combiner's psync, stops dequeue
// combiners from removing nodes whose linkage is not yet durable.
//
// PWFqueue combines PWFcomb with the SimQueue construction: an enqueue
// combiner builds a private list of the batch's nodes and publishes it as a
// *pending part* (the IE state holds three pointers: tail, pendHead,
// pendTail); the pending part is spliced onto the main list — idempotently,
// by whichever thread gets there first — at the start of the next round.
// Because the three pointers are persisted in the IE record before S moves,
// recovery can always re-perform the splice after a crash.
//
// A Queue is built as the paper builds it: the two combining instances plus
// the per-thread sequence numbers and commit record its system model
// persists, which live in a system area (internal/sysarea) every operation
// runs through, and which builds the two instances. NewOn builds the queue's
// own area, or builds two classes of an area the caller shares with other
// structures (the server store's map).
package queue

import (
	"sync/atomic"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/pool"
	"pcomb/internal/sysarea"
	"pcomb/internal/vecbatch"
)

// Operation codes.
const (
	OpEnq uint64 = 1
	OpDeq uint64 = 2
)

// Empty is the Dequeue return value signalling an empty queue.
const Empty = ^uint64(0)

// EnqOK is the Enqueue return value.
const EnqOK uint64 = 0

// Kind selects the underlying combining protocol: Blocking builds PBqueue,
// WaitFree PWFqueue.
type Kind = core.Kind

const (
	Blocking = core.Blocking
	WaitFree = core.WaitFree
)

// Options configures a queue instance.
type Options struct {
	// Recycling (PBqueue only) reuses dequeued nodes through per-thread
	// free lists; PWFqueue leaves reclamation to future work, as the paper
	// does.
	Recycling bool
	// Capacity is the node arena size; 0 selects a generous default.
	Capacity int
	// ChunkSize is the per-thread allocation chunk; 0 selects the default.
	ChunkSize int
	// VecCap builds both combining instances with vectorized-announcement
	// support: threads may publish up to VecCap operations per slot toggle
	// (0 or 1 = scalar only). Part of the persistent layout — re-open with
	// the same value.
	VecCap int
	// Epoch, when non-nil, switches a queue with a system area of its own to
	// epoch-mode relaxed durability on the caller's epoch: combiner rounds
	// apply and return volatile-fast, the epoch's closes make them durable,
	// and a crash may lose the operations of the last open epoch (and only
	// those). A queue built on a caller's area takes that area's epoch
	// instead.
	Epoch *pmem.Epoch
}

const (
	nodeWords        = 2 // [value, next]
	defaultCapacity  = 1 << 20
	defaultChunkSize = 256
)

// Queue is a detectably recoverable concurrent FIFO queue: two combining
// instances behind a system area. Values must be below Empty. The root
// package exports it as pcomb.Queue.
type Queue struct {
	sysarea.EpochFront

	sys  *sysarea.Area
	base int // class of enqueues; dequeues are base+1

	kind Kind
	p    *pool.Pool
	meta *pmem.Region // word 0: dummy node index; word LineWords: magic

	enq core.Protocol
	deq core.Protocol

	oldTail atomic.Uint64 // PBqueue: last node safe for dequeuers (volatile)
}

const queueMagic = 0x71c0_0001_beef_0001

// NewOn creates (or re-opens after a crash) a recoverable queue for n
// threads. Its enqueue and dequeue instances become classes base and base+1
// of the caller's system area sys — built on sys's protocol, vector capacity
// and epoch in place of kind, opt.VecCap and opt.Epoch — and commit and stage
// through it: Recover resolves sys's whole record, and Flush commits sys's
// whole window. With sys nil the queue builds an area of its own, named
// name+"/sysarea", with classes 0 and 1 (base is then 0). Re-open with the
// same options and call Recover for every thread before new operations.
func NewOn(h *pmem.Heap, name string, n int, kind Kind, opt Options, sys *sysarea.Area, base int) *Queue {
	if opt.Capacity == 0 {
		opt.Capacity = defaultCapacity
	}
	if opt.ChunkSize == 0 {
		opt.ChunkSize = defaultChunkSize
	}
	q := &Queue{
		p:    pool.New(h, name, n, nodeWords, opt.Capacity, opt.ChunkSize),
		meta: h.AllocOrGet(name+"/queue.meta", 2*pmem.LineWords),
	}
	bootCtx := h.NewCtx()
	if q.meta.Load(pmem.LineWords) != queueMagic {
		dummy := q.p.AllocFresh(bootCtx, 0)
		q.p.Store(dummy, 0, 0)
		q.p.Store(dummy, 1, pool.Nil)
		bootCtx.PWB(q.p.Region(), q.p.Offset(dummy), nodeWords)
		bootCtx.PFence()
		q.meta.Store(0, dummy)
		q.meta.Store(pmem.LineWords, queueMagic)
		bootCtx.PWB(q.meta, 0, 2*pmem.LineWords)
		bootCtx.PSync()
	}
	dummy := q.meta.Load(0)

	if sys == nil {
		sys, base = sysarea.New(h, name+"/sysarea", n, 2, kind, opt.Epoch, opt.VecCap), 0
	}
	q.sys, q.base, q.kind = sys, base, sys.Kind()
	switch q.kind {
	case Blocking:
		eo := &pbEnqObj{q: q, dummy: dummy, per: make([]roundScratch, n)}
		do := &pbDeqObj{q: q, dummy: dummy, recycle: opt.Recycling, per: make([]roundScratch, n)}
		q.enq = sys.Build(base, name+"/enq", eo)
		q.deq = sys.Build(base+1, name+"/deq", do)
		q.enq.SetCommit(func(env *core.Env, _ bool) {
			// The round's nodes are durable: expose them to dequeuers.
			q.oldTail.Store(env.State.Load(0))
		})
		if opt.Recycling {
			q.deq.SetCommit(func(env *core.Env, _ bool) { do.commit(env.Combiner) })
		}
	case WaitFree:
		eo := &wfEnqObj{q: q, dummy: dummy, per: make([]roundScratch, n)}
		do := &wfDeqObj{q: q, dummy: dummy}
		q.enq = sys.Build(base, name+"/enq", eo)
		q.deq = sys.Build(base+1, name+"/deq", do)
		q.enq.SetCommit(func(env *core.Env, won bool) { eo.commit(env.Combiner, won) })
		do.ie = q.enq.(*core.PWFComb)
		// Recovery: if a pending part was published but the splice did not
		// persist before the crash, re-perform it (idempotent).
		st := q.enq.CurrentState()
		if pendH := st.Load(1); pendH != pool.Nil {
			tail := st.Load(0)
			q.p.Store(tail, 1, pendH)
			bootCtx.PWB(q.p.Region(), q.p.Offset(tail), nodeWords)
			bootCtx.PFence()
		}
	default:
		panic("queue: unknown kind")
	}

	// After a restart only durable nodes exist, so the durable tail bounds
	// what dequeuers may remove.
	q.oldTail.Store(q.tailForDequeuers())

	if sys.Epoch() != nil {
		// A crash can leave node linkage persisted PAST the durable tail: an
		// epoch that never closed spliced its nodes (the line write-backs
		// landed under a partial close) while the combiner record holding the
		// advanced tail vanished. Strict mode never faces this — the
		// interrupted operation is re-performed and overwrites the link — but
		// in epoch mode the operation completed volatile, so nothing repairs
		// it, and the next enqueue round would silently orphan the suffix
		// after Snapshot/recovery already saw it. Sever it now: a closed
		// epoch's stamp implies its tail state is durable, so anything past
		// the durable tail belongs to operations that are free to vanish.
		if tail := q.tailForDequeuers(); q.p.Load(tail, 1) != pool.Nil {
			q.p.Store(tail, 1, pool.Nil)
			bootCtx.PWB(q.p.Region(), q.p.Offset(tail), nodeWords)
			bootCtx.PFence()
		}
	}
	q.EpochFront = sysarea.EpochFront{Front: sys.Front(base, base+2)}
	return q
}

// tailForDequeuers returns the last node dequeue combiners may consume
// according to the enqueue instance's current (durable at rest) state.
func (q *Queue) tailForDequeuers() uint64 {
	st := q.enq.CurrentState()
	if q.kind == WaitFree {
		if pendT := st.Load(2); pendT != pool.Nil {
			return pendT
		}
	}
	return st.Load(0)
}

// Enqueue appends v for thread tid.
func (q *Queue) Enqueue(tid int, v uint64) { q.sys.Invoke(tid, q.base, OpEnq, v, 0) }

// Dequeue removes the oldest value for thread tid; ok is false when empty.
func (q *Queue) Dequeue(tid int) (v uint64, ok bool) {
	if r := q.sys.Invoke(tid, q.base+1, OpDeq, 0, 0); r != Empty {
		return r, true
	}
	return 0, false
}

// SubmitEnqueue stages an enqueue of v on the system area's window (requires
// VecCap > 1). The staged batch commits when it reaches VecCap operations, on
// Flush or a Future's Wait, or — to preserve the thread's program order, as
// enqueues and dequeues do not commute — when a dequeue is submitted. Until
// its batch's Flush has recorded it durably, a staged op is lost wholesale by
// a crash: pipelining trades per-op commit for per-batch commit. A flushed
// batch is one system-area record that carries its operations, announced as
// one vector, so Recover resolves an interrupted one as a whole — from the
// record, not the announcement block — one Resolved per op in submission
// order.
func (q *Queue) SubmitEnqueue(tid int, v uint64) vecbatch.Future {
	if q.sys.Staged(tid, q.base+1) {
		q.sys.Flush(tid)
	}
	return q.sys.Submit(tid, q.base, OpEnq, v, 0)
}

// SubmitDequeue stages a dequeue (requires VecCap > 1); the Future's Wait
// returns the dequeued value or Empty. Any staged enqueues flush first,
// preserving the thread's program order.
func (q *Queue) SubmitDequeue(tid int) vecbatch.Future {
	if q.sys.Staged(tid, q.base) {
		q.sys.Flush(tid)
	}
	return q.sys.Submit(tid, q.base+1, OpDeq, 0, 0)
}

// Snapshot walks the queue head-to-tail. Quiescent use only.
func (q *Queue) Snapshot() []uint64 {
	head := q.deq.CurrentState().Load(0)
	est := q.enq.CurrentState()
	tail := est.Load(0)
	pendH := pool.Nil
	if q.kind == WaitFree {
		pendH = est.Load(1)
	}
	var out []uint64
	cur := head
	for {
		var next uint64
		if cur == tail && pendH != pool.Nil {
			// Follow the (possibly not yet spliced) pending part.
			next = pendH
			pendH = pool.Nil
		} else {
			next = q.p.Load(cur, 1)
		}
		if next == pool.Nil {
			break
		}
		out = append(out, q.p.Load(next, 0))
		cur = next
	}
	return out
}

// Len returns the number of elements. Quiescent use only.
func (q *Queue) Len() int { return len(q.Snapshot()) }

// roundScratch is per-combiner bookkeeping shared by the queue objects.
type roundScratch struct {
	fs    pmem.FlushSet
	alloc []uint64
	freed []uint64
}
