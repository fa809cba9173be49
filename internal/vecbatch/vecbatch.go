// Package vecbatch is the volatile half of the async pipelined submission
// API: a per-thread staging buffer that accumulates operations into vectors
// and hands each full (or explicitly flushed) vector to a commit function —
// the system area's (internal/sysarea), which records it and announces it
// through core.Protocol's InvokeVec — that fills in the per-op responses.
//
// The pipe itself holds no persistent state — an operation is guaranteed
// exactly-once only from the moment its batch's Flush records it durably
// (the commit function's job). A crash before that loses the staged batch
// wholesale, which is the documented contract of Submit: pipelining trades
// per-op commit for per-batch commit.
//
// Concurrency contract: as everywhere in this repo, thread id tid belongs to
// one goroutine; Submit/Flush/Pending for a given tid — and Wait on futures
// it produced — must be called only by that goroutine. Different tids never
// contend.
package vecbatch

import "pcomb/internal/core"

// Flusher commits one staged vector for thread tid and writes the per-op
// responses into rets (len(rets) == len(ops)). It is called synchronously
// from Submit (when the buffer fills) or Flush.
type Flusher func(tid int, ops []core.VecOp, rets []uint64)

// Pipe stages operations per thread and flushes them in vectors of up to
// cap operations. The nil *Pipe is the window of a system area built without
// a payload above 1: nothing is ever staged on it, so Pending is 0 and Flush
// a no-op, and Submit panics.
type Pipe struct {
	cap   int
	flush Flusher
	th    []pthread
}

// pthread is one thread's staging state. Responses are kept by operation
// number in a ring of two full vectors' worth, so the results of the previous
// vector stay readable while the next is staged and flushed, and a vector
// flushed early — by Flush, Wait, or a caller committing before it stages an
// operation that does not commute — uses no more of the ring than it holds. A
// Future therefore expires once 2·cap further operations of its thread have
// been flushed.
type pthread struct {
	ops  []core.VecOp
	out  []uint64 // the flushing vector's responses, before they enter ring
	ring []uint64
	done uint64 // operations flushed; the next staged one is number done+len(ops)
	_    [6]uint64
}

// New creates a pipe for n threads with vector capacity cap (≥ 1).
func New(n, cap int, f Flusher) *Pipe {
	if cap < 1 {
		cap = 1
	}
	p := &Pipe{cap: cap, flush: f, th: make([]pthread, n)}
	for i := range p.th {
		p.th[i].ops = make([]core.VecOp, 0, cap)
		p.th[i].out = make([]uint64, cap)
		p.th[i].ring = make([]uint64, 2*cap)
	}
	return p
}

// Cap returns the pipe's vector capacity (0 for the nil pipe).
func (p *Pipe) Cap() int {
	if p == nil {
		return 0
	}
	return p.cap
}

// Pending returns the number of staged, not yet flushed operations of tid.
func (p *Pipe) Pending(tid int) int {
	if p == nil {
		return 0
	}
	return len(p.th[tid].ops)
}

// Submit stages op for thread tid, flushing automatically when the staged
// vector reaches capacity. The returned Future yields the op's response.
func (p *Pipe) Submit(tid int, op core.VecOp) Future {
	if p == nil {
		panic("vecbatch: Submit on a structure built without VecCap > 1")
	}
	t := &p.th[tid]
	f := Future{p: p, tid: tid, n: t.done + uint64(len(t.ops))}
	t.ops = append(t.ops, op)
	if len(t.ops) >= p.cap {
		p.Flush(tid)
	}
	return f
}

// Flush commits tid's staged vector (no-op when nothing is staged). After
// Flush returns, every staged op has taken effect durably and its Future is
// resolved.
func (p *Pipe) Flush(tid int) {
	if p.Pending(tid) == 0 {
		return
	}
	t := &p.th[tid]
	out := t.out[:len(t.ops)]
	p.flush(tid, t.ops, out)
	k := copy(t.ring[t.done%uint64(len(t.ring)):], out)
	copy(t.ring, out[k:])
	t.done += uint64(len(t.ops))
	t.ops = t.ops[:0]
}

// Future is the handle of one submitted operation. The zero Future is
// invalid. A Future expires — Wait panics — once 2·cap further operations of
// its thread have been flushed after it (its response slot has been reused).
type Future struct {
	p   *Pipe
	tid int
	n   uint64 // the operation's number among its thread's
}

// Done reports whether the future's batch has been flushed (its response is
// available without blocking).
func (f Future) Done() bool { return f.p.th[f.tid].done > f.n }

// Wait returns the operation's response, flushing the owning thread's
// staged batch first if it is still pending. Must be called by the
// submitting thread.
func (f Future) Wait() uint64 {
	t := &f.p.th[f.tid]
	if t.done <= f.n {
		f.p.Flush(f.tid)
	}
	if t.done > f.n+uint64(len(t.ring)) {
		panic("vecbatch: Future expired (its response buffer has been reused)")
	}
	return t.ring[f.n%uint64(len(t.ring))]
}
