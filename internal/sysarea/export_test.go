package sysarea

import "pcomb/internal/core"

// Seq returns tid's sequence counter of class.
func (a *Area) Seq(tid, class int) uint64 { return a.counter(tid, class) }

// CommitPrefix applies the first k stores tid's next commit of ops would
// issue — the durable state a process death leaves when it lands between two
// of them; all of them when k is past the end — and returns the length of the
// whole sequence.
func (a *Area) CommitPrefix(tid int, ops []core.VecOp, classOf func(int, core.VecOp) int, k int) int {
	stores := a.commitStores(tid, a.group(tid, ops, classOf), a.scratch[tid].ops[:len(ops)])
	for _, s := range stores[:min(k, len(stores))] {
		a.r.DirectStore(s.i, s.v)
	}
	return len(stores)
}

// Reopen undoes End's one store: the state of an operation that was performed
// but whose record never closed.
func (a *Area) Reopen(tid int) {
	i := tid*a.stride + a.k
	a.r.DirectStore(i, a.r.Load(i)&^1)
}

// Rewind undoes a commit's store of tid's class counter. With CommitPrefix it
// rebuilds what a process death between a commit's groups leaves: the groups
// that ran were applied under the sequence numbers the record still holds.
func (a *Area) Rewind(tid, class int) {
	i := tid*a.stride + class
	a.r.DirectStore(i, a.r.Load(i)-1)
}
