package queue

import (
	"pcomb/internal/core"
	"pcomb/internal/pool"
)

// pbEnqObj is the sequential object driven by PBqueue's enqueue-side PBcomb
// instance. State: [tail]. The combiner splices batch nodes directly into
// the shared linked list and persists every node it wrote (new nodes plus
// the old tail whose next pointer changed) before the protocol persists the
// record; dequeuers cannot observe the splice until oldTail advances in
// its round hook (core.Protocol's SetCommit).
type pbEnqObj struct {
	q     *Queue
	dummy uint64
	per   []roundScratch
}

func (o *pbEnqObj) StateWords() int { return 1 }

func (o *pbEnqObj) Init(s core.State) { s.Store(0, o.dummy) }

func (o *pbEnqObj) Apply(env *core.Env, r *core.Request) {
	b := []core.Request{*r}
	o.ApplyBatch(env, b)
	r.Ret = b[0].Ret
}

func (o *pbEnqObj) ApplyBatch(env *core.Env, reqs []core.Request) {
	sc := &o.per[env.Combiner]
	sc.fs.Reset(o.q.p.Region())
	tail := env.State.Load(0)
	for i := range reqs {
		r := &reqs[i]
		if r.Op != OpEnq {
			r.Ret = Empty
			continue
		}
		idx := o.q.p.Alloc(env.Ctx, env.Combiner)
		o.q.p.Store(idx, 0, r.A0)
		o.q.p.Store(idx, 1, pool.Nil)
		o.q.p.Store(tail, 1, idx)
		sc.fs.Add(o.q.p.Offset(idx), nodeWords)
		sc.fs.Add(o.q.p.Offset(tail), nodeWords)
		tail = idx
		r.Ret = EnqOK
	}
	env.State.Store(0, tail)
	sc.fs.Flush(env.Ctx)
}

// pbDeqObj is the dequeue-side object. State: [head] (head is the current
// dummy node; the value of the logical front element lives in head.next).
// Dequeue combiners write no nodes, so they persist nothing beyond the
// protocol's record — but they must not remove nodes beyond oldTail, whose
// linkage might not be durable yet.
type pbDeqObj struct {
	q       *Queue
	dummy   uint64
	recycle bool
	per     []roundScratch
}

func (o *pbDeqObj) StateWords() int { return 1 }

func (o *pbDeqObj) Init(s core.State) { s.Store(0, o.dummy) }

func (o *pbDeqObj) Apply(env *core.Env, r *core.Request) {
	b := []core.Request{*r}
	o.ApplyBatch(env, b)
	r.Ret = b[0].Ret
}

func (o *pbDeqObj) ApplyBatch(env *core.Env, reqs []core.Request) {
	sc := &o.per[env.Combiner]
	head := env.State.Load(0)
	limit := o.q.oldTail.Load()
	for i := range reqs {
		r := &reqs[i]
		if r.Op != OpDeq {
			r.Ret = Empty
			continue
		}
		if head == limit {
			r.Ret = Empty
			continue
		}
		next := o.q.p.Load(head, 1)
		r.Ret = o.q.p.Load(next, 0)
		if o.recycle {
			sc.freed = append(sc.freed, head)
		}
		head = next
	}
	env.State.Store(0, head)
}

// commit reclaims the round's removed nodes once their removal is durable
// (the round hook), onto the combiner's private free list — the paper's PBqueue
// scheme, which does not preserve chunk adjacency and is therefore the
// "simple recycling" whose cost Figure 2a shows.
func (o *pbDeqObj) commit(tid int) {
	sc := &o.per[tid]
	for _, idx := range sc.freed {
		o.q.p.Free(tid, idx)
	}
	sc.freed = sc.freed[:0]
}
