package sysarea

import (
	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/vecbatch"
)

// Front is what a structure built on an area exposes of it, written once and
// embedded by every structure: recovery, the history log, the probe, and
// Flush/Pending over the area's staging window. Its log and probe cover the
// structure's own classes of the area, so structures sharing an area keep
// logs and probes of their own.
type Front struct {
	a       *Area
	classes []int
}

// Front returns the front of the structure that owns classes [lo, hi) of a.
func (a *Area) Front(lo, hi int) Front {
	f := Front{a: a}
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

// SetProbe installs p on the structure's combining instances and the area's
// staging window; the zero Probe uninstalls it. Area.SetProbe has the
// contract.
func (f *Front) SetProbe(p core.Probe) { f.a.SetProbe(p, f.classes...) }

// Flush commits thread tid's staged operations durably — on an area shared
// with other structures, the area's whole window.
func (f *Front) Flush(tid int) { f.a.Flush(tid) }

// Pending returns the number of staged, unflushed operations of tid on the
// area's window.
func (f *Front) Pending(tid int) int { return f.a.Pending(tid) }

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
}

// NewRecoverable creates — or re-opens after a crash — a recoverable version
// of obj for n threads, on PBcomb (Blocking) or PWFcomb (WaitFree). vecCap
// above 1 enables Submit with up to vecCap operations per flush; it is part of
// the persistent layout — re-open with the same value.
func NewRecoverable(h *pmem.Heap, name string, n int, kind core.Kind, obj core.Object, vecCap int) *Recoverable {
	a := New(h, name+"/sysarea", n, 1, kind, nil, vecCap)
	return &Recoverable{Front: a.Front(0, 1), inst: a.Build(0, name, obj)}
}

// Invoke runs one operation; op, a0 and a1 — any values — are interpreted by
// the Object.
func (r *Recoverable) Invoke(tid int, op, a0, a1 uint64) uint64 {
	return r.a.Invoke(tid, 0, op, a0, a1)
}

// Submit stages one operation on the async pipelined path (requires vecCap
// > 1). The staged batch commits when it reaches vecCap operations or on
// Flush or a Future's Wait; until then a crash loses it wholesale.
func (r *Recoverable) Submit(tid int, op, a0, a1 uint64) vecbatch.Future {
	return r.a.Submit(tid, 0, op, a0, a1)
}

// State views the current object state (quiescent use only).
func (r *Recoverable) State() core.State { return r.inst.CurrentState() }
