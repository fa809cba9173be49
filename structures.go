package pcomb

import (
	"time"

	"pcomb/internal/core"
	"pcomb/internal/heap"
	"pcomb/internal/history"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
	"pcomb/internal/sysarea"
	"pcomb/internal/vecbatch"
)

// Queue is a detectably recoverable concurrent FIFO queue (PBqueue or
// PWFqueue). Values must be below 2^64-1 (the top value is the internal
// empty sentinel).
type Queue struct {
	q    *queue.Queue
	sys  *sysarea.Area
	base int // sys class of enqueues; dequeues are base+1 (0 unless a server store's)

	// Async pipelined submission (nil unless QueueOptions.VecCap > 1).
	// Enqueues and dequeues stage separately — they run on separate
	// combining instances — but never pend simultaneously: submitting one
	// class flushes the other, preserving per-thread program order.
	enqPipe *vecbatch.Pipe
	deqPipe *vecbatch.Pipe
}

// QueueOptions tunes a queue instance; the zero value is sensible. PBqueue
// recycles nodes; PWFqueue never does, matching the paper.
type QueueOptions struct {
	// Capacity bounds the node arena (0 = default).
	Capacity int
	// VecCap enables the async Submit/Flush API with up to VecCap
	// operations per announcement (0 or 1 = blocking API only). Part of the
	// persistent layout — re-open with the same value.
	VecCap int
	// Epoch switches the queue to epoch-mode relaxed durability (group
	// commit): operations apply and return without touching the persistence
	// instructions on their critical path, a background closer makes whole
	// epochs durable at once, and a crash may lose the operations of the
	// last open epoch — and only those (Recover reports an interrupted
	// operation of that window with Certain=false). Use Sync/WaitDurable for
	// per-operation durability. Part of the persistent layout — re-open with
	// the same value.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode; 0 = no
	// ticker, epochs close only via Sync).
	EpochInterval time.Duration
}

// NewQueue creates — or, after Crash, re-opens — a recoverable queue for
// the given number of threads.
func (s *System) NewQueue(name string, threads int, kind Kind, opts ...QueueOptions) *Queue {
	var o QueueOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	var ep *pmem.Epoch
	if o.Epoch {
		ep = pmem.NewEpoch(s.heap, name, pmem.EpochOpts{Interval: o.EpochInterval})
	}
	in := queue.New(s.heap, name, threads, kind, queue.Options{
		Recycling: kind == Blocking,
		Capacity:  o.Capacity,
		VecCap:    o.VecCap,
		Epoch:     ep,
	})
	q := &Queue{q: in, sys: s.sysArea(name, threads, ep, o.VecCap, in.EnqProtocol(), in.DeqProtocol())}
	if o.VecCap > 1 {
		q.enqPipe = vecbatch.New(threads, o.VecCap, q.sys.Flusher(0))
		q.deqPipe = vecbatch.New(threads, o.VecCap, q.sys.Flusher(1))
	}
	return q
}

// sysArea opens the system area of the structure called name over its
// combining instances (one sequence-counter class each); a flushed batch of up
// to vecCap operations is one of its records.
func (s *System) sysArea(name string, threads int, epoch *pmem.Epoch, vecCap int, insts ...core.Protocol) *sysarea.Area {
	return sysarea.New(s.heap, name+"/sysarea", threads, insts, epoch, vecCap)
}

// Enqueue appends v for thread tid.
func (q *Queue) Enqueue(tid int, v uint64) { q.sys.Invoke(tid, q.base, OpEnqueue, v, 0) }

// Dequeue removes the oldest value for thread tid; ok is false when empty.
func (q *Queue) Dequeue(tid int) (v uint64, ok bool) {
	return orEmpty(q.sys.Invoke(tid, q.base+1, OpDequeue, 0, 0))
}

// orEmpty splits a removal's response into (value, true) or (0, false).
func orEmpty(r uint64) (uint64, bool) {
	if r == Empty {
		return 0, false
	}
	return r, true
}

// Recover resolves what thread tid had in flight when the system crashed —
// a scalar operation or a whole flushed batch (one record carries all of its
// operations, so a flush is all or nothing) — exactly once: each operation is
// re-run or its response fetched, never both. Call it for every thread after
// re-opening the queue. Ops submitted but not yet flushed at the crash are
// lost wholesale and not reported (the async API's commit-point contract).
func (q *Queue) Recover(tid int) []Resolved { return q.sys.Recover(tid) }

// Sync forces an epoch close: everything applied before the call is durable
// when it returns. No-op in strict mode (every operation is already durable
// when it returns).
func (q *Queue) Sync() { q.sys.Epoch().CloseNow() }

// EpochNow returns the open epoch — the durability label of operations
// returning now (0 in strict mode). Pass a label read after an operation
// returned to WaitDurable to block until that operation is durable.
func (q *Queue) EpochNow() uint64 { return q.sys.Epoch().Now() }

// EpochClosed returns the last durably closed epoch (0 in strict mode).
func (q *Queue) EpochClosed() uint64 { return q.sys.Epoch().Closed() }

// WaitDurable blocks until epoch target is durably closed; it returns false
// if the system crashed first, and true at once in strict mode.
func (q *Queue) WaitDurable(target uint64) bool { return q.sys.Epoch().Wait(target) }

// Close halts the epoch's background closer (if any) after a final close;
// strict mode starts no goroutine and has nothing to stop. Idempotent; call
// while quiescent.
func (q *Queue) Close() { q.sys.Epoch().Stop() }

// Snapshot returns the queue contents head-to-tail (quiescent use only).
func (q *Queue) Snapshot() []uint64 { return q.q.Snapshot() }

// Len returns the number of elements (quiescent use only).
func (q *Queue) Len() int { return q.q.Len() }

// Stack is a detectably recoverable concurrent stack (PBstack/PWFstack).
type Stack struct {
	s   *stack.Stack
	sys *sysarea.Area

	// pipe stages async submissions (nil unless StackOptions.VecCap > 1).
	pipe *vecbatch.Pipe
}

// StackOptions tunes a stack instance; the zero value is sensible. A stack
// always runs the paper's elimination and recycling optimizations.
type StackOptions struct {
	// Capacity bounds the node arena (0 = default).
	Capacity int
	// VecCap enables the async Submit/Flush API (0 or 1 = blocking only).
	// Part of the persistent layout — re-open with the same value.
	VecCap int
}

// NewStack creates — or re-opens — a recoverable stack.
func (s *System) NewStack(name string, threads int, kind Kind, opts ...StackOptions) *Stack {
	var o StackOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	in := stack.New(s.heap, name, threads, kind, stack.Options{
		Elimination: true,
		Recycling:   true,
		Capacity:    o.Capacity,
		VecCap:      o.VecCap,
	})
	st := &Stack{s: in, sys: s.sysArea(name, threads, nil, o.VecCap, in.Protocol())}
	if o.VecCap > 1 {
		st.pipe = vecbatch.New(threads, o.VecCap, st.sys.Flusher(0))
	}
	return st
}

// Push pushes v for thread tid.
func (st *Stack) Push(tid int, v uint64) { st.sys.Invoke(tid, 0, OpPush, v, 0) }

// Pop removes the top value for thread tid; ok is false when empty.
func (st *Stack) Pop(tid int) (v uint64, ok bool) {
	return orEmpty(st.sys.Invoke(tid, 0, OpPop, 0, 0))
}

// Recover resolves what thread tid had in flight at the crash, as
// Queue.Recover.
func (st *Stack) Recover(tid int) []Resolved { return st.sys.Recover(tid) }

// Snapshot returns the stack contents top-to-bottom (quiescent use only).
func (st *Stack) Snapshot() []uint64 { return st.s.Snapshot() }

// Len returns the number of elements (quiescent use only).
func (st *Stack) Len() int { return st.s.Len() }

// Heap is a detectably recoverable concurrent bounded min-heap (PBheap or
// the wait-free PWFheap extension).
type Heap struct {
	h   *heap.Heap
	sys *sysarea.Area

	// pipe stages async submissions (nil unless HeapOptions.VecCap > 1).
	pipe *vecbatch.Pipe
}

// HeapOptions tunes a heap instance; the zero value is sensible. A heap
// persists its whole key array every round, as the paper's PBheap does.
type HeapOptions struct {
	// VecCap enables the async Submit/Flush API (0 or 1 = blocking only).
	// Part of the persistent layout — re-open with the same value.
	VecCap int
}

// NewHeap creates — or re-opens — a recoverable min-heap holding at most
// bound keys.
func (s *System) NewHeap(name string, threads int, kind Kind, bound int, opts ...HeapOptions) *Heap {
	var o HeapOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	in := heap.NewWith(s.heap, name, threads, kind, bound, core.CombOpts{VecCap: o.VecCap})
	h := &Heap{h: in, sys: s.sysArea(name, threads, nil, o.VecCap, in.Protocol())}
	if o.VecCap > 1 {
		h.pipe = vecbatch.New(threads, o.VecCap, h.sys.Flusher(0))
	}
	return h
}

// Insert adds key; it reports false when the heap is full.
func (h *Heap) Insert(tid int, key uint64) bool {
	return h.sys.Invoke(tid, 0, OpInsert, key, 0) == heap.InsertOK
}

// DeleteMin removes and returns the smallest key; ok is false when empty.
func (h *Heap) DeleteMin(tid int) (key uint64, ok bool) {
	return orEmpty(h.sys.Invoke(tid, 0, OpDeleteMin, 0, 0))
}

// GetMin returns the smallest key without removing it. It is a validated read
// of the heap's last durable state: it announces nothing and issues no
// persistence instruction, sees every operation that returned before it was
// called, and never returns state a crash could roll back. A crash-interrupted
// GetMin is simply re-issued; Recover does not report it.
func (h *Heap) GetMin(tid int) (key uint64, ok bool) {
	return orEmpty(h.sys.Read(tid, 0, OpGetMin, 0, 0))
}

// Recover resolves what thread tid had in flight at the crash, as
// Queue.Recover.
func (h *Heap) Recover(tid int) []Resolved { return h.sys.Recover(tid) }

// Len returns the number of keys in the last durable state; safe beside
// running operations.
func (h *Heap) Len() int { return h.h.Len() }

// Keys returns the raw key array in heap order (quiescent use only).
func (h *Heap) Keys() []uint64 { return h.h.Keys() }

// Recoverable is any sequential Object made recoverable and concurrent by a
// combining protocol — the paper's universal-construction usage.
type Recoverable struct {
	c   core.Protocol
	sys *sysarea.Area

	// pipe stages async submissions (nil unless ObjectOptions.VecCap > 1).
	pipe *vecbatch.Pipe
}

// ObjectOptions tunes a Recoverable instance; the zero value is sensible.
// Whether the protocol persists obj's whole record or only the lines a round
// dirtied is obj's to say: see SparseObject.
type ObjectOptions struct {
	// VecCap enables the async Submit/Flush API (0 or 1 = blocking only).
	// Part of the persistent layout — re-open with the same value.
	VecCap int
}

// NewObject creates — or re-opens — a recoverable version of obj.
func (s *System) NewObject(name string, threads int, kind Kind, obj Object, opts ...ObjectOptions) *Recoverable {
	var o ObjectOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	co := core.CombOpts{VecCap: o.VecCap}
	var c core.Protocol
	if kind == WaitFree {
		c = core.NewPWFCombWith(s.heap, name, threads, obj, co)
	} else {
		c = core.NewPBCombWith(s.heap, name, threads, obj, co)
	}
	r := &Recoverable{c: c, sys: s.sysArea(name, threads, nil, o.VecCap, c)}
	if o.VecCap > 1 {
		r.pipe = vecbatch.New(threads, o.VecCap, r.sys.Flusher(0))
	}
	return r
}

// Invoke runs one operation (op, a0, a1 are interpreted by the Object; op
// must be in [1, 2^63)).
func (r *Recoverable) Invoke(tid int, op, a0, a1 uint64) uint64 {
	return r.sys.Invoke(tid, 0, op, a0, a1)
}

// Recover resolves what thread tid had in flight at the crash, as
// Queue.Recover; Resolved.Op is the Object's own op code.
func (r *Recoverable) Recover(tid int) []Resolved { return r.sys.Recover(tid) }

// State views the current object state (quiescent use only).
func (r *Recoverable) State() State { return r.c.CurrentState() }

// History is a per-thread operation recorder for durable-linearizability
// checking: install one with a structure's SetHistory, run a workload,
// and validate the recorded history (completed, pending, and recovered
// operations) against the structure's sequential model with
// internal/linearizability's crash-cut checker. Recording is opt-in; without
// a log an operation pays one branch.
type History = history.Recorder

// NewHistory creates a recorder for threads workers.
func NewHistory(threads int) *History { return history.New(threads) }

// HistoryLog is what SetHistory accepts: a *History, or any other log of
// invocations and responses (the crash tests journal to a file). nil — the
// literal, or a nil *History — removes the log.
type HistoryLog = sysarea.Log

// SetHistory installs (or, with nil, removes) an operation log.
func (q *Queue) SetHistory(h HistoryLog) { q.sys.SetHistory(h, q.base, q.base+1) }

// SetHistory installs (or, with nil, removes) an operation log.
func (st *Stack) SetHistory(h HistoryLog) { st.sys.SetHistory(h) }

// SetHistory installs (or, with nil, removes) an operation log.
func (h *Heap) SetHistory(l HistoryLog) { h.sys.SetHistory(l) }

// SetHistory installs (or, with nil, removes) an operation log; operations
// are recorded under the Object's own op codes.
func (r *Recoverable) SetHistory(h HistoryLog) { r.sys.SetHistory(h) }
