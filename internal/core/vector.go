// Vectorized announcements: a thread writes up to VecCap operations into its
// argument ring and announces the whole vector with a single slot toggle. A
// combiner drains the vector through ApplyBatch in ring order (program order
// per originator), writes one response per op into its originator's widened
// ReturnVal block, and deactivates the vector with one toggle — so the
// announce handshake, the combining round, and the record persist all
// amortize over the vector. Every ring entry names its originator: InvokeVec's
// entries are all the announcer's own, InvokeDelegated's belong to threads the
// announcer serves (a board sweep), and both run through one body.
//
// The ring is volatile, like the announcement array: it is never written
// back. After a crash the caller re-supplies a vector's operations from its
// own durable copy (internal/sysarea's record payload) to RecoverVec, which
// rewrites the ring before re-announcing — the paper's system model, which
// hands the recovery function the original arguments again.
package core

import (
	"pcomb/internal/obs"
	"pcomb/internal/prim"
)

// ringEnt is the number of ring words per entry: op, a0, a1 and the
// originator·parity word (packDelMeta).
const ringEnt = 4

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

// storeEnt writes entry i of tid's ring: an op originated by thread orig,
// whose deactivate bit the serving round flips to seq&1.
func (c *comb) storeEnt(tid, i int, op, a0, a1 uint64, orig int, seq uint64) {
	e := c.vecBase(tid) + ringEnt*i
	c.vec[e].Store(op)
	c.vec[e+1].Store(a0)
	c.vec[e+2].Store(a1)
	c.vec[e+3].Store(packDelMeta(orig, seq))
}

// writeVec writes ops into tid's ring as tid's own operations under seq.
func (c *comb) writeVec(tid int, ops []VecOp, seq uint64) {
	for i, op := range ops {
		c.storeEnt(tid, i, op.Op, op.A0, op.A1, tid, seq)
	}
}

// spanStart returns the start time of a span, or 0 when no span log is
// installed.
func (c *comb) spanStart() int64 {
	if c.spans != nil {
		return obs.Now()
	}
	return 0
}

// announceVec announces tid's first cnt ring entries with one slot toggle.
func (c *comb) announceVec(tid, cnt int, seq uint64) {
	c.req[tid].announceVec(cnt, seq&1)
	c.onReqWrite(tid, tid)
}

// InvokeVec announces and executes one vector of operations for thread tid.
// seq follows the per-thread contract of Invoke — one number per
// announcement, its low bit driving activate/deactivate detectability for
// the whole vector.
func (c *comb) InvokeVec(tid int, ops []VecOp, seq uint64, rets []uint64) {
	if len(ops) == 0 {
		return
	}
	t0 := c.spanStart()
	c.checkVec(len(ops), rets)
	c.writeVec(tid, ops, seq)
	c.runVec(tid, len(ops), seq, rets, t0, true)
}

// InvokeDelegated announces dops — operations originated by *other* threads —
// as one vector under ctid's announcement slot; seq is ctid's own
// per-announcement sequence number (one per call, low bit driving ctid's
// toggle). A combining round executes each op, writes its response into the
// originator's ReturnVal slot, and flips the originator's deactivate bit to
// dop.Seq&1 in the same durable record — so every delegated op remains
// exactly-once recoverable through the originator's own scalar Recover.
//
// rets[i] receives dops[i]'s response. The originators must be parked (they
// are waiting for ctid to hand the response back), so their ReturnVal slots
// cannot be overwritten between the serving round and the collection.
func (c *comb) InvokeDelegated(ctid int, seq uint64, dops []DelOp, rets []uint64) {
	if len(dops) == 0 {
		return
	}
	t0 := c.spanStart()
	c.checkVec(len(dops), rets)
	for i, d := range dops {
		c.storeEnt(ctid, i, d.Op, d.A0, d.A1, d.Tid, d.Seq)
	}
	c.runVec(ctid, len(dops), seq, rets, t0, false)
}

// runVec is the body of InvokeVec and InvokeDelegated once tid's ring holds
// cnt entries (written since t0): it announces them with one slot toggle,
// waits until a combiner's round has served the whole vector, and copies the
// per-op responses into rets[:cnt]. wait applies Invoke's announce backoff
// before competing; a delegating announcer skips it, since the threads it
// serves are parked on it rather than announcing, so the backoff could only
// delay them.
func (c *comb) runVec(tid, cnt int, seq uint64, rets []uint64, t0 int64, wait bool) {
	c.onBatchSize(tid, cnt)
	c.announceVec(tid, cnt, seq)
	var t1 int64
	if c.spans != nil {
		t1 = obs.Now()
		c.spans.Record(tid, obs.PhasePublish, t0, t1, uint64(cnt))
	}
	switch { // as in Invoke
	case !wait:
	case c.n > 1:
		c.announceWait(tid, seq&1)
	case c.backoffs != nil:
		c.backoffs[tid].Wait()
	default:
		prim.Pause()
	}
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseBackoff, t1, obs.Now(), 0)
	}
	c.p.perform(tid)
	c.clearAnnounce(tid)
	c.collectRets(tid, cnt, rets)
}

// collectRets copies the responses of tid's first cnt ring entries out of the
// current record with a validated multi-word read (the index word may move
// mid-copy). Entry i's response sits in its originator's ReturnVal block at
// the entry's occurrence index among that originator's entries, where serve
// wrote it. Stable once perform returned: later rounds copy a non-announcing
// thread's slots forward unchanged (dense copy, or sparse two-round
// staleness), and a delegating announcer's originators are parked until it
// hands their responses back.
func (c *comb) collectRets(tid, cnt int, rets []uint64) {
	vb, occ := c.vecBase(tid), c.occ[tid]
	w := prim.NewSpin(c.spin)
	for {
		iv := c.idx.Load(0)
		slot, _ := prim.UnpackVersioned(iv)
		base := c.recOff(slot)
		for i := 0; i < cnt; i++ {
			o, _ := unpackDelMeta(c.vec[vb+ringEnt*i+3].Load())
			rets[i] = c.state.Load(base + c.retSlot(o) + occ[o])
			occ[o]++
		}
		for i := 0; i < cnt; i++ {
			o, _ := unpackDelMeta(c.vec[vb+ringEnt*i+3].Load())
			occ[o] = 0
		}
		if c.idx.Load(0) == iv {
			return
		}
		w.Wait()
	}
}

// RecoverVec resolves thread tid's interrupted vector after a crash: the
// caller re-supplies the original ops and seq. The ring is rewritten first
// (it is volatile, so the crash left nothing in it), then the vector is
// re-announced with the original toggle, so a combiner neither re-executes a
// vector that took effect nor skips one that did not; the responses of every
// completed op land in rets.
func (c *comb) RecoverVec(tid int, ops []VecOp, seq uint64, rets []uint64) {
	cnt := len(ops)
	if cnt == 0 {
		return
	}
	c.checkVec(cnt, rets)
	c.writeVec(tid, ops, seq)
	if recoverSabotage.Load() {
		// Mutation-test bug: skip re-announce/re-perform and hand back
		// whatever the return blocks hold.
		c.collectRets(tid, cnt, rets)
		return
	}
	c.announceVec(tid, cnt, seq)
	if c.recWord(c.deactOff+tid) != seq&1 {
		c.p.perform(tid)
	}
	c.clearAnnounce(tid)
	c.collectRets(tid, cnt, rets)
}
