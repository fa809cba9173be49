package sysarea

// BeginStores is the length of Begin's store sequence.
const BeginStores = len([7]store{})

// BeginPrefix applies the first k stores Begin would issue for tid's next
// operation on class — the durable state a process death leaves when it
// lands between two of them.
func (a *Area) BeginPrefix(tid, class int, op, a0, a1 uint64, k int) {
	stores := a.beginStores(tid, class, op, a0, a1, a.Seq(tid, class)+1)
	for _, s := range stores[:k] {
		a.r.DirectStore(s.i, s.v)
	}
}

// Reopen undoes End's one store: the state of an operation that was performed
// but whose record never closed.
func (a *Area) Reopen(tid int) { a.r.DirectStore(tid*a.stride+a.k+recDone, 0) }
