// Package vecbatch is the volatile half of the async pipelined submission
// API: a per-thread staging buffer that accumulates operations into vectors
// and hands each full (or explicitly flushed) vector to a structure-specific
// commit function, which announces it as one vector through a
// core.Protocol's InvokeVec and fills in the per-op responses.
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

import (
	"pcomb/internal/core"
	"pcomb/internal/obs"
)

// Flusher commits one staged vector for thread tid and writes the per-op
// responses into rets (len(rets) == len(ops)). It is called synchronously
// from Submit (when the buffer fills) or Flush.
type Flusher func(tid int, ops []core.VecOp, rets []uint64)

// Pipe stages operations per thread and flushes them in vectors of up to
// cap operations. The nil *Pipe is the pipe of a structure built without
// VecCap > 1: nothing is ever staged on it, so Pending is 0 and Flush a
// no-op, and Submit panics.
type Pipe struct {
	cap   int
	flush Flusher
	th    []pthread
	spans *obs.SpanLog // per-op lifecycle spans; nil = tracing disabled
}

// SetProbe installs pr's span log on the pipe (the pipe reports to nothing
// else). While one is installed, every flush records a resolve span — the
// time one staged vector took to commit durably and resolve its futures —
// complementing the publish/combine/persist spans the underlying protocol
// records inside the same interval.
func (p *Pipe) SetProbe(pr core.Probe) { p.spans = pr.Spans }

// pthread is one thread's staging state. Responses are double-buffered by
// flush generation so the results of the previous flush stay readable while
// the next batch is staged and flushed — a Future therefore expires once
// two further flushes have completed.
type pthread struct {
	ops  []core.VecOp
	rets [2][]uint64
	gen  uint64 // completed flushes; the staged batch will be generation gen
	_    [4]uint64
}

// New creates a pipe for n threads with vector capacity cap (≥ 1).
func New(n, cap int, f Flusher) *Pipe {
	if cap < 1 {
		cap = 1
	}
	p := &Pipe{cap: cap, flush: f, th: make([]pthread, n)}
	for i := range p.th {
		p.th[i].ops = make([]core.VecOp, 0, cap)
		p.th[i].rets[0] = make([]uint64, cap)
		p.th[i].rets[1] = make([]uint64, cap)
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
	f := Future{p: p, tid: tid, gen: t.gen, idx: len(t.ops)}
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
	var t0 int64
	if p.spans != nil {
		t0 = obs.Now()
	}
	p.flush(tid, t.ops, t.rets[t.gen%2][:len(t.ops)])
	if p.spans != nil {
		p.spans.Record(tid, obs.PhaseResolve, t0, obs.Now(), uint64(len(t.ops)))
	}
	t.ops = t.ops[:0]
	t.gen++
}

// Future is the handle of one submitted operation. The zero Future is
// invalid. A Future expires — Wait panics — once two flushes have completed
// after the one that resolved it (its response buffer has been reused).
type Future struct {
	p   *Pipe
	tid int
	gen uint64
	idx int
}

// Done reports whether the future's batch has been flushed (its response is
// available without blocking).
func (f Future) Done() bool { return f.p.th[f.tid].gen > f.gen }

// Wait returns the operation's response, flushing the owning thread's
// staged batch first if it is still pending. Must be called by the
// submitting thread.
func (f Future) Wait() uint64 {
	t := &f.p.th[f.tid]
	if t.gen == f.gen {
		f.p.Flush(f.tid)
	}
	if t.gen > f.gen+2 {
		panic("vecbatch: Future expired (its response buffer has been reused)")
	}
	return t.rets[f.gen%2][f.idx]
}
