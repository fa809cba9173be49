package queue

import (
	"pcomb/internal/core"
	"pcomb/internal/pool"
)

// wfEnqObj is PWFqueue's enqueue-side object. State: [tail, pendHead,
// pendTail]. A combining round first splices the previous round's pending
// part onto the main list (an idempotent write: every thread that attempts
// it computes the same value from the same validated record), then builds
// the batch's nodes as a private list and publishes it as the new pending
// part. Node writes and the splice are persisted before the protocol's
// record pwb, so everything reachable from a published record is durable.
type wfEnqObj struct {
	q     *Queue
	dummy uint64
	per   []roundScratch
}

func (o *wfEnqObj) StateWords() int { return 3 }

func (o *wfEnqObj) Init(s core.State) {
	s.Store(0, o.dummy)
	s.Store(1, pool.Nil)
	s.Store(2, pool.Nil)
}

func (o *wfEnqObj) Apply(env *core.Env, r *core.Request) {
	b := []core.Request{*r}
	o.ApplyBatch(env, b)
	r.Ret = b[0].Ret
}

func (o *wfEnqObj) ApplyBatch(env *core.Env, reqs []core.Request) {
	sc := &o.per[env.Combiner]
	sc.fs.Reset(o.q.p.Region())
	sc.alloc = sc.alloc[:0]

	tail := env.State.Load(0)
	pendH := env.State.Load(1)
	pendT := env.State.Load(2)
	if pendH != pool.Nil {
		// Splice the previous pending part and persist the updated node.
		o.q.p.Store(tail, 1, pendH)
		sc.fs.Add(o.q.p.Offset(tail), nodeWords)
		tail = pendT
	}

	var newH, newT uint64 = pool.Nil, pool.Nil
	for i := range reqs {
		r := &reqs[i]
		if r.Op != OpEnq {
			r.Ret = Empty
			continue
		}
		idx := o.q.p.Alloc(env.Ctx, env.Combiner)
		sc.alloc = append(sc.alloc, idx)
		o.q.p.Store(idx, 0, r.A0)
		o.q.p.Store(idx, 1, pool.Nil)
		if newH == pool.Nil {
			newH = idx
		} else {
			o.q.p.Store(newT, 1, idx)
		}
		sc.fs.Add(o.q.p.Offset(idx), nodeWords)
		newT = idx
		r.Ret = EnqOK
	}
	env.State.Store(0, tail)
	env.State.Store(1, newH)
	env.State.Store(2, newT)
	sc.fs.Flush(env.Ctx)
}

// commit returns a failed round's nodes to the combiner's private free list
// (they never became reachable). PWFqueue has no reclamation of dequeued
// nodes, matching the paper.
func (o *wfEnqObj) commit(tid int, success bool) {
	sc := &o.per[tid]
	if !success {
		for _, idx := range sc.alloc {
			o.q.p.Free(tid, idx)
		}
	}
	sc.alloc = sc.alloc[:0]
}

// wfDeqObj is PWFqueue's dequeue-side object. State: [head]. A combining
// round reads a validated snapshot of the enqueue instance's state, helps
// splice the pending part (idempotent), and dequeues up to the end of the
// snapshot — every node it consumes was persisted by the enqueue combiner
// before that snapshot could be published.
type wfDeqObj struct {
	q     *Queue
	dummy uint64
	ie    *core.PWFComb
}

func (o *wfDeqObj) StateWords() int { return 1 }

func (o *wfDeqObj) Init(s core.State) { s.Store(0, o.dummy) }

func (o *wfDeqObj) Apply(env *core.Env, r *core.Request) {
	b := []core.Request{*r}
	o.ApplyBatch(env, b)
	r.Ret = b[0].Ret
}

func (o *wfDeqObj) ApplyBatch(env *core.Env, reqs []core.Request) {
	var est [3]uint64
	o.ie.ReadState(est[:])
	tail, pendH, pendT := est[0], est[1], est[2]
	limit := tail
	if pendH != pool.Nil {
		o.q.p.Store(tail, 1, pendH) // help splice; idempotent
		limit = pendT
	}

	head := env.State.Load(0)
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
		head = next
	}
	env.State.Store(0, head)
}
