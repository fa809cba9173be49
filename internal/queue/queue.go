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
package queue

import (
	"sync/atomic"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/pool"
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

// Kind selects the underlying combining protocol.
type Kind int

const (
	// Blocking builds PBqueue.
	Blocking Kind = iota
	// WaitFree builds PWFqueue.
	WaitFree
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
	// Sparse builds both combining instances on the sparse variants
	// (dirty-line copy and persistence). The queue states are 1–3 words, so
	// the win is small; the flag keeps the queue API uniform with the other
	// structures.
	Sparse bool
	// VecCap builds both combining instances with vectorized-announcement
	// support: threads may publish up to VecCap operations per slot toggle
	// (0 or 1 = scalar only). Part of the persistent layout — re-open with
	// the same value.
	VecCap int
	// Epoch, when non-nil, switches the queue to epoch-mode relaxed
	// durability on the caller's epoch, which other structures may share:
	// combiner rounds apply and return volatile-fast, the epoch's closes make
	// them durable, and a crash may lose the operations of the last open
	// epoch (and only those).
	Epoch *pmem.Epoch
}

const (
	nodeWords        = 2 // [value, next]
	defaultCapacity  = 1 << 20
	defaultChunkSize = 256
)

// Queue is a detectably recoverable concurrent FIFO queue.
type Queue struct {
	kind Kind
	p    *pool.Pool
	meta *pmem.Region // word 0: dummy node index; word LineWords: magic

	enq core.Protocol
	deq core.Protocol

	oldTail atomic.Uint64 // PBqueue: last node safe for dequeuers (volatile)
}

const queueMagic = 0x71c0_0001_beef_0001

// New creates (or re-opens after a crash) a recoverable queue for n threads.
func New(h *pmem.Heap, name string, n int, kind Kind, opt Options) *Queue {
	if opt.Capacity == 0 {
		opt.Capacity = defaultCapacity
	}
	if opt.ChunkSize == 0 {
		opt.ChunkSize = defaultChunkSize
	}
	q := &Queue{
		kind: kind,
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

	switch kind {
	case Blocking:
		eo := &pbEnqObj{q: q, dummy: dummy, per: make([]roundScratch, n)}
		do := &pbDeqObj{q: q, dummy: dummy, recycle: opt.Recycling, per: make([]roundScratch, n)}
		co := core.CombOpts{Sparse: opt.Sparse, VecCap: opt.VecCap}
		ie := core.NewPBCombWith(h, name+"/enq", n, eo, co)
		id := core.NewPBCombWith(h, name+"/deq", n, do, co)
		ie.PostSync = func(env *core.Env) {
			// The round's nodes are durable: expose them to dequeuers.
			q.oldTail.Store(env.State.Load(0))
		}
		if opt.Recycling {
			id.PostSync = func(env *core.Env) { do.commit(env.Combiner) }
		}
		q.enq, q.deq = ie, id
	case WaitFree:
		eo := &wfEnqObj{q: q, dummy: dummy, per: make([]roundScratch, n)}
		do := &wfDeqObj{q: q, dummy: dummy}
		co := core.CombOpts{Sparse: opt.Sparse, VecCap: opt.VecCap}
		ie := core.NewPWFCombWith(h, name+"/enq", n, eo, co)
		id := core.NewPWFCombWith(h, name+"/deq", n, do, co)
		ie.PostSC = func(env *core.Env, ok bool) { eo.commit(env.Combiner, ok) }
		do.ie = ie
		q.enq, q.deq = ie, id
		// Recovery: if a pending part was published but the splice did not
		// persist before the crash, re-perform it (idempotent).
		st := ie.CurrentState()
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

	if ep := opt.Epoch; ep != nil {
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
		// Attach after construction so boot-time persistence stays strict;
		// both instances defer into one shared buffer, so a single close
		// covers every round of the whole queue.
		q.enq.(core.EpochCapable).AttachEpoch(ep)
		q.deq.(core.EpochCapable).AttachEpoch(ep)
	}
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

// Enqueue appends v. seq counts this thread's enqueues (starting at 1).
func (q *Queue) Enqueue(tid int, v, seq uint64) { q.enq.Invoke(tid, OpEnq, v, 0, seq) }

// Dequeue removes the oldest value. seq counts this thread's dequeues.
func (q *Queue) Dequeue(tid int, seq uint64) (uint64, bool) {
	r := q.deq.Invoke(tid, OpDeq, 0, 0, seq)
	if r == Empty {
		return 0, false
	}
	return r, true
}

// SetProbe installs p on both the enqueue and dequeue combining instances
// (they share its sinks, so reported rounds/degrees cover the whole queue and
// a thread's span track interleaves enqueue and dequeue spans).
func (q *Queue) SetProbe(p core.Probe) {
	q.enq.SetProbe(p)
	q.deq.SetProbe(p)
}

// EnqProtocol and DeqProtocol expose the combining instances (the system
// area invokes and recovers through them).
func (q *Queue) EnqProtocol() core.Protocol { return q.enq }

// DeqProtocol exposes the dequeue-side combining instance.
func (q *Queue) DeqProtocol() core.Protocol { return q.deq }

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
