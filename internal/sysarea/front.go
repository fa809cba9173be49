package sysarea

import (
	"fmt"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/vecbatch"
)

// Front is what a structure built on an area exposes of it, written once and
// embedded by every structure: recovery, the history log, the probe, and
// Flush/Pending over the structure's Submit pipes. It covers the structure's
// own classes of the area, so structures sharing an area keep logs and probes
// of their own.
type Front struct {
	a       *Area
	classes []int
	pipes   []*vecbatch.Pipe // nil entries: built without VecCap > 1
}

// Front returns the front of the structure that owns classes [lo, hi) of a
// and stages on pipes (none when the structure's caller stages for it).
func (a *Area) Front(lo, hi int, pipes ...*vecbatch.Pipe) Front {
	f := Front{a: a, pipes: pipes}
	for c := lo; c < hi; c++ {
		f.classes = append(f.classes, c)
	}
	return f
}

// Recover resolves what thread tid had in flight when the system crashed — a
// scalar operation or a whole flushed batch (one record carries all of its
// operations, so a flush is all or nothing) — exactly once: each operation is
// re-run or its response fetched, never both. Call it for every thread after
// re-opening the structure, before new operations. Ops submitted but not yet
// flushed at the crash are lost wholesale and not reported (the async path's
// commit-point contract). On an area shared with other structures it resolves
// the area's whole record. Area.Recover has the contract, epoch-mode
// ambiguity included.
func (f *Front) Recover(tid int) []Resolved { return f.a.Recover(tid) }

// SetHistory installs (or, with nil, removes) an operation log on the
// structure's classes: every invocation, response and recovered response of
// its operations is reported to it. Install while quiescent.
func (f *Front) SetHistory(h Log) { f.a.SetHistory(h, f.classes...) }

// SetProbe installs p on every combining instance the structure is built
// from and on its Submit pipes (they share p's sinks, so stats aggregate
// across instances and a thread's span track interleaves their spans); the
// zero Probe uninstalls it.
func (f *Front) SetProbe(p core.Probe) {
	for _, c := range f.classes {
		f.a.insts[c].SetProbe(p)
	}
	for _, pp := range f.pipes {
		if pp != nil {
			pp.SetProbe(p)
		}
	}
}

// Flush commits thread tid's staged operations durably.
func (f *Front) Flush(tid int) {
	for _, p := range f.pipes {
		p.Flush(tid)
	}
}

// Pending returns the number of staged, unflushed operations of tid.
func (f *Front) Pending(tid int) int {
	n := 0
	for _, p := range f.pipes {
		n += p.Pending(tid)
	}
	return n
}

// EpochFront is Front plus the epoch accessors, for the structures that can
// run under epoch-mode relaxed durability. On a strict structure they are
// safe no-ops: the nil Epoch is open and closed at 0.
type EpochFront struct{ Front }

// Sync forces an epoch close: everything applied before the call is durable
// when it returns. On an area shared with other structures it closes the
// area's one epoch. No-op in strict mode, where every operation is durable
// when it returns.
func (f *EpochFront) Sync() { f.a.epoch.CloseNow() }

// EpochNow returns the open epoch — the durability label of operations
// returning now (0 in strict mode). Pass a label read after an operation
// returned to WaitDurable to block until that operation is durable.
func (f *EpochFront) EpochNow() uint64 { return f.a.epoch.Now() }

// EpochClosed returns the last durably closed epoch (0 in strict mode).
func (f *EpochFront) EpochClosed() uint64 { return f.a.epoch.Closed() }

// WaitDurable blocks until epoch target is durably closed; it returns false
// if the system crashed first, and true at once in strict mode.
func (f *EpochFront) WaitDurable(target uint64) bool { return f.a.epoch.Wait(target) }

// Close halts the epoch's background closer (if any) after a final close.
// Strict mode starts no goroutine and has nothing to stop. Idempotent; call
// while quiescent.
func (f *EpochFront) Close() { f.a.epoch.Stop() }

// Recoverable is any sequential Object made recoverable and concurrent by a
// combining protocol — the paper's universal-construction usage: a Front over
// one instance. The root package exports it as pcomb.Recoverable.
type Recoverable struct {
	Front
	inst core.Protocol
	pipe *vecbatch.Pipe // nil unless built with vecCap > 1
}

// NewRecoverable creates — or re-opens after a crash — a recoverable version
// of obj for n threads, on PBcomb (Blocking) or PWFcomb (WaitFree). vecCap
// above 1 enables Submit with up to vecCap operations per flush; it is part of
// the persistent layout — re-open with the same value.
func NewRecoverable(h *pmem.Heap, name string, n int, kind core.Kind, obj core.Object, vecCap int) *Recoverable {
	co := core.CombOpts{VecCap: vecCap}
	var inst core.Protocol
	if kind == core.WaitFree {
		inst = core.NewPWFCombWith(h, name, n, obj, co)
	} else {
		inst = core.NewPBCombWith(h, name, n, obj, co)
	}
	a := New(h, name+"/sysarea", n, []core.Protocol{inst}, nil, vecCap)
	r := &Recoverable{inst: inst}
	if vecCap > 1 {
		r.pipe = vecbatch.New(n, vecCap, a.Flusher(0))
	}
	r.Front = a.Front(0, 1, r.pipe)
	return r
}

// checkOp rejects an op code the record cannot hold: 0 reads as "no record"
// and bit 63 marks a multi-op commit.
func checkOp(op uint64) {
	if op == 0 || op&vecMark != 0 {
		panic(fmt.Sprintf("sysarea: op code %#x outside [1, 2^63)", op))
	}
}

// Invoke runs one operation; op, a0 and a1 are interpreted by the Object, and
// op must be in [1, 2^63).
func (r *Recoverable) Invoke(tid int, op, a0, a1 uint64) uint64 {
	checkOp(op)
	return r.a.Invoke(tid, 0, op, a0, a1)
}

// Submit stages one operation on the async pipelined path (requires vecCap
// > 1; op must be in [1, 2^63)). The staged batch commits when it reaches
// vecCap operations or on Flush or a Future's Wait; until then a crash loses
// it wholesale.
func (r *Recoverable) Submit(tid int, op, a0, a1 uint64) vecbatch.Future {
	checkOp(op)
	return r.pipe.Submit(tid, core.VecOp{Op: op, A0: a0, A1: a1})
}

// State views the current object state (quiescent use only).
func (r *Recoverable) State() core.State { return r.inst.CurrentState() }
