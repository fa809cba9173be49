package sysarea

import "pcomb/internal/core"

// BeginStores is the length of Begin's store sequence.
const BeginStores = len([7]store{})

// Seq returns tid's sequence counter of class.
func (a *Area) Seq(tid, class int) uint64 { return a.counter(tid, class) }

// BeginPrefix applies the first k stores Begin would issue for tid's next
// operation on class — the durable state a process death leaves when it
// lands between two of them.
func (a *Area) BeginPrefix(tid, class int, op, a0, a1 uint64, k int) {
	stores := a.beginStores(tid, class, op, a0, a1, a.counter(tid, class)+1)
	for _, s := range stores[:k] {
		a.r.DirectStore(s.i, s.v)
	}
}

// CommitPrefix applies the first k stores InvokeGrouped would issue for tid's
// next commit of ops and returns the length of the whole sequence.
func (a *Area) CommitPrefix(tid int, ops []core.VecOp, classOf func(int, core.VecOp) int, k int) int {
	stores := a.commitStores(tid, a.group(tid, ops, classOf), a.scratch[tid].ops[:len(ops)])
	for _, s := range stores[:k] {
		a.r.DirectStore(s.i, s.v)
	}
	return len(stores)
}

// Reopen undoes End's one store: the state of an operation that was performed
// but whose record never closed.
func (a *Area) Reopen(tid int) { a.r.DirectStore(tid*a.stride+a.k+recDone, 0) }
