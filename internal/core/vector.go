// Vectorized announcements: a thread publishes up to VecCap operations in
// its persistent argument ring, makes them durable with one pwb+pfence, and
// announces the whole vector with a single slot toggle. A combiner drains
// the vector through ApplyBatch in ring order (the thread's program order),
// writes one response per op into the thread's widened ReturnVal block, and
// deactivates the vector with one toggle — so the announce handshake, the
// combining round, and the record persist all amortize over the vector.
//
// Recovery never reads the ring: the caller keeps its own durable copy of the
// operations (internal/sysarea's record payload) and re-supplies them to
// RecoverVec, which republishes the ring before re-announcing — so a ring torn
// mid-publish, or one whose write-backs an epoch deferred and a crash dropped,
// is simply overwritten. The ring's pwb+pfence in publishVec order the
// arguments before the announcement for the combiners of the running process;
// recovery no longer depends on them.
package core

import (
	"pcomb/internal/obs"
	"pcomb/internal/prim"
)

// VecCap returns the instance's vector capacity (1 for scalar-only).
func (c *comb) VecCap() int { return c.vcap }

// vecBase returns the ring offset of thread q's argument vector.
func (c *comb) vecBase(q int) int { return q * c.vecStride }

func (c *comb) checkVec(cnt int, rets []uint64) {
	if c.vec == nil {
		panic("core: instance built without CombOpts.VecCap > 1")
	}
	if cnt > c.vcap {
		panic("core: vector exceeds the instance's VecCap")
	}
	if rets != nil && len(rets) < cnt {
		panic("core: rets shorter than the vector")
	}
}

// publishVec writes ops into tid's argument ring and makes them durable
// (pwb+pfence) without announcing.
func (c *comb) publishVec(tid int, ops []VecOp) {
	c.checkVec(len(ops), nil)
	var t0 int64
	if c.spans != nil {
		t0 = obs.Now()
	}
	b := c.vecBase(tid)
	for i, op := range ops {
		e := b + c.entWords*i
		c.vec.Store(e, op.Op)
		c.vec.Store(e+1, op.A0)
		c.vec.Store(e+2, op.A1)
	}
	ctx := c.ctxs[tid]
	ctx.PWB(c.vec, b, c.entWords*len(ops))
	ctx.PFence()
	if c.spans != nil {
		c.spans.Record(tid, obs.PhasePublish, t0, obs.Now(), uint64(len(ops)))
	}
}

// announceVec announces tid's first cnt ring entries with one slot toggle.
// On a delegate instance it first stamps their meta words: every op of a
// self-published vector originates from tid itself with the announcement's
// parity. Those stores are plain region writes — the meta word is consumed
// only by in-process combiners (ordered by the ctl store that follows) and
// never read by post-crash recovery, which republishes.
func (c *comb) announceVec(tid, cnt int, seq uint64) {
	if c.delegate {
		b := c.vecBase(tid)
		for i := 0; i < cnt; i++ {
			c.vec.Store(b+4*i+3, packDelMeta(tid, seq))
		}
	}
	c.req[tid].announceVec(cnt, seq&1)
	c.onReqWrite(tid, tid)
}

// performVec announces the cnt ring operations published by publishVec with
// one slot toggle, waits until a combiner's round has served the whole
// vector, and copies the per-op responses into rets[:cnt].
func (c *comb) performVec(tid, cnt int, seq uint64, rets []uint64) {
	if cnt <= 0 {
		return
	}
	c.checkVec(cnt, rets)
	c.onBatchSize(tid, cnt)
	var t0 int64
	if c.spans != nil {
		t0 = obs.Now()
	}
	c.announceVec(tid, cnt, seq)
	switch { // as in Invoke
	case c.n > 1:
		c.announceWait(tid, seq&1)
	case c.backoffs != nil:
		c.backoffs[tid].Wait()
	default:
		prim.Pause()
	}
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseBackoff, t0, obs.Now(), 0)
	}
	c.p.perform(tid)
	c.clearAnnounce(tid)
	c.collectRets(tid, cnt, rets)
}

// collectRets copies tid's response slots out of the current record with a
// validated multi-word read (the index word may move mid-copy). Stable once
// perform returned: later rounds copy a non-announcing thread's slots forward
// unchanged (dense copy, or sparse two-round staleness).
func (c *comb) collectRets(tid, cnt int, rets []uint64) {
	for {
		iv := c.idx.Load(0)
		slot, _ := prim.UnpackVersioned(iv)
		base := c.recOff(slot) + c.retSlot(tid)
		for i := 0; i < cnt; i++ {
			rets[i] = c.state.Load(base + i)
		}
		if c.idx.Load(0) == iv {
			return
		}
		prim.Pause()
	}
}

// InvokeVec publishes and executes one vector of operations for thread tid.
// seq follows the per-thread contract of Invoke — one number per
// announcement, its low bit driving activate/deactivate detectability for
// the whole vector.
func (c *comb) InvokeVec(tid int, ops []VecOp, seq uint64, rets []uint64) {
	if len(ops) == 0 {
		return
	}
	c.publishVec(tid, ops)
	c.performVec(tid, len(ops), seq, rets)
}

// RecoverVec resolves thread tid's interrupted vector after a crash: the
// caller re-supplies the original ops and seq. The ring is republished first
// (the crash may have torn a half-written publication), then the vector is
// re-announced with the original toggle, so a combiner neither re-executes a
// vector that took effect nor skips one that did not; the responses of every
// completed op land in rets.
func (c *comb) RecoverVec(tid int, ops []VecOp, seq uint64, rets []uint64) {
	cnt := len(ops)
	if cnt == 0 {
		return
	}
	c.checkVec(cnt, rets)
	if recoverSabotage.Load() {
		// Mutation-test bug: skip republish/re-announce/re-perform and hand
		// back whatever the return blocks hold.
		c.collectRets(tid, cnt, rets)
		return
	}
	c.publishVec(tid, ops)
	c.announceVec(tid, cnt, seq)
	if c.recWord(c.deactOff+tid) != seq&1 {
		c.p.perform(tid)
	}
	c.clearAnnounce(tid)
	c.collectRets(tid, cnt, rets)
}

// InvokeDelegated announces dops — operations originated by *other* threads —
// as one vector under ctid's announcement slot; seq is ctid's own
// per-announcement sequence number (one per call, low bit driving ctid's
// toggle). A combining round executes each op, writes its response into the
// originator's ReturnVal slot, and flips the originator's deactivate bit to
// dop.Seq&1 in the same durable record — so every delegated op remains
// exactly-once recoverable through the originator's own scalar Recover, and
// the delegating ring itself needs no durability (no pwb/pfence: after a
// crash each originator re-announces for itself).
//
// rets[i] receives dops[i]'s response. The originators must be parked (they
// are waiting for ctid to hand the response back), so their ReturnVal slots
// cannot be overwritten between the serving round and the collection below.
func (c *comb) InvokeDelegated(ctid int, seq uint64, dops []DelOp, rets []uint64) {
	cnt := len(dops)
	if cnt == 0 {
		return
	}
	if !c.delegate {
		panic("core: instance built without CombOpts.Delegate")
	}
	c.checkVec(cnt, rets)
	c.onBatchSize(ctid, cnt)
	b := c.vecBase(ctid)
	for i, d := range dops {
		e := b + 4*i
		c.vec.Store(e, d.Op)
		c.vec.Store(e+1, d.A0)
		c.vec.Store(e+2, d.A1)
		c.vec.Store(e+3, packDelMeta(d.Tid, d.Seq))
	}
	c.req[ctid].announceVec(cnt, seq&1)
	c.onReqWrite(ctid, ctid)
	c.p.perform(ctid)
	c.clearAnnounce(ctid)

	// Each delegated op's response sits in its originator's ReturnVal block:
	// op i of originator t landed at retSlot(t) plus i's occurrence index
	// among t's ops in the vector (combiners preserve ring order per
	// originator). Validated like collectRets.
	for {
		iv := c.idx.Load(0)
		slot, _ := prim.UnpackVersioned(iv)
		base := c.recOff(slot)
		for i, d := range dops {
			occ := 0
			for j := 0; j < i; j++ {
				if dops[j].Tid == d.Tid {
					occ++
				}
			}
			rets[i] = c.state.Load(base + c.retSlot(d.Tid) + occ)
		}
		if c.idx.Load(0) == iv {
			return
		}
		prim.Pause()
	}
}
