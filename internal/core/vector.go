// The announcement block: each thread announces through one volatile block
// of words — a control word, then up to VecCap entries of (op, a0, a1,
// originator·parity) — and one store of the control word (activate bit,
// valid bit, entry count) publishes the whole announcement. Entry 0 shares
// the control word's cache line, so a one-entry announcement, an Invoke,
// touches one line. A combiner drains an announcement through ApplyBatch in
// entry order (program order per originator), writes one response per entry
// into its originator's ReturnVal block and flips its originator's
// deactivate bit — so the announce handshake, the combining round, and the
// record persist all amortize over the vector. Every entry names its
// originator: Invoke's and InvokeVec's entries are all the announcer's own,
// InvokeDelegated's are the announcer's own op and those of the threads it
// serves (a board sweep), and all three run through one body, runVec. Every
// announcement thus carries an entry of its announcer's own, whose
// deactivate bit is the one that retires the announcement.
//
// The block is volatile, like the paper's Request array: it is never written
// back. After a crash the caller re-supplies an announcement's operations
// (internal/sysarea's record) to Recover or RecoverVec, which rewrite the
// block before re-announcing — the paper's system model, which hands the
// recovery function the original arguments again.
package core

import (
	"pcomb/internal/obs"
	"pcomb/internal/prim"
)

// entWords is the number of words per announcement entry: op, a0, a1 and the
// originator·parity word (packDelMeta).
const entWords = 4

// VecCap returns the most operations one announcement carries (at least 1).
func (c *comb) VecCap() int { return c.vcap }

// annBase returns the offset of thread q's announcement block, whose first
// word is the control word and whose entry i starts at annBase(q)+1+entWords*i.
func (c *comb) annBase(q int) int { return q * c.annStride }

func (c *comb) checkVec(cnt int, rets []uint64) {
	if cnt > c.vcap {
		panic("core: vector exceeds the instance's VecCap")
	}
	if len(rets) < cnt {
		panic("core: rets shorter than the vector")
	}
}

// storeEnt writes entry i of tid's block: an op originated by thread orig,
// whose deactivate bit the serving round flips to seq&1.
func (c *comb) storeEnt(tid, i int, op, a0, a1 uint64, orig int, seq uint64) {
	e := c.annBase(tid) + 1 + entWords*i
	c.ann[e].Store(op)
	c.ann[e+1].Store(a0)
	c.ann[e+2].Store(a1)
	c.ann[e+3].Store(packDelMeta(orig, seq))
}

// writeVec writes ops into tid's block as tid's own operations under seq.
func (c *comb) writeVec(tid int, ops []VecOp, seq uint64) {
	for i, op := range ops {
		c.storeEnt(tid, i, op.Op, op.A0, op.A1, tid, seq)
	}
}

// announce publishes tid's first cnt entries with one store of the control
// word, which transfers (activate, count) consistently to combiners, and with
// them the entries stored before it.
func (c *comb) announce(tid, cnt int, seq uint64) {
	c.ann[c.annBase(tid)].Store(packCtl(seq, cnt))
	c.onReqWrite(tid, tid)
}

// spanStart returns the start time of a span, or 0 when no span log is
// installed.
func (c *comb) spanStart() int64 {
	if c.spans != nil {
		return obs.Now()
	}
	return 0
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
	c.onBatchSize(tid, len(ops))
	c.writeVec(tid, ops, seq)
	c.runVec(tid, len(ops), seq, rets, t0, true)
}

// InvokeDelegated announces dops as one vector under tid's announcement
// block: tid's own operation and operations originated by *other* threads
// (a board sweep). One dop must be tid's own: its Seq is the block's
// activate bit, and the round that serves it deactivates tid through that
// entry; a vector without one panics. A combining round executes each op, writes its response
// into the originator's ReturnVal slot, and flips the originator's deactivate
// bit to dop.Seq&1 in the same durable record — so every delegated op remains
// exactly-once recoverable through the originator's own Recover.
//
// rets[i] receives dops[i]'s response. The other originators must be parked
// (they are waiting for tid to hand the response back), so their ReturnVal
// slots cannot be overwritten between the serving round and the collection.
func (c *comb) InvokeDelegated(tid int, dops []DelOp, rets []uint64) {
	if len(dops) == 0 {
		return
	}
	t0 := c.spanStart()
	c.checkVec(len(dops), rets)
	c.onBatchSize(tid, len(dops))
	seq, own := uint64(0), false
	for i, d := range dops {
		if d.Tid == tid {
			seq, own = d.Seq, true
		}
		c.storeEnt(tid, i, d.Op, d.A0, d.A1, d.Tid, d.Seq)
	}
	if !own {
		panic("core: delegated vector carries no entry of its announcer")
	}
	c.runVec(tid, len(dops), seq, rets, t0, false)
}

// runVec is the one body of Invoke, InvokeVec and InvokeDelegated once tid's
// block holds cnt entries (written since t0): it announces them with one
// control-word store, waits until a combiner's round has served them, and
// returns the first word of ReturnVal[tid] — an Invoke's response. With rets
// non-nil it also copies every entry's response into rets[:cnt].
//
// wait applies the announce backoff before competing: this is what lets
// announcements accumulate into large combining batches (cf. the paper's
// backoff discussion). The wait is adaptive: it grows only while other
// threads are demonstrably competing AND observed rounds are still small
// relative to the thread count, and shrinks back otherwise, so an
// uncontended instance degenerates to the fixed wait — PWFcomb's seeded
// backoff, or a bare yield. A delegating announcer skips it, since the
// threads it serves are parked on it rather than announcing, so the backoff
// could only delay them.
func (c *comb) runVec(tid, cnt int, seq uint64, rets []uint64, t0 int64, wait bool) uint64 {
	c.announce(tid, cnt, seq)
	var t1 int64
	if c.spans != nil {
		t1 = obs.Now()
		c.spans.Record(tid, obs.PhasePublish, t0, t1, uint64(cnt))
	}
	switch {
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
	ret := c.p.perform(tid)
	c.clearAnnounce(tid)
	if rets != nil {
		c.collectRets(tid, cnt, rets)
	}
	return ret
}

// collectRets copies the responses of tid's first cnt entries out of the
// current record with a validated multi-word read (the index word may move
// mid-copy). Entry i's response sits in its originator's ReturnVal block at
// the entry's occurrence index among that originator's entries, where serve
// wrote it. Stable once perform returned: later rounds copy a non-announcing
// thread's slots forward unchanged (dense copy, or sparse two-round
// staleness), and a delegating announcer's originators are parked until it
// hands their responses back.
func (c *comb) collectRets(tid, cnt int, rets []uint64) {
	b, occ := c.annBase(tid)+1, c.occ[tid]
	w := prim.NewSpin(c.spin)
	for {
		iv := c.idx.Load(0)
		slot, _ := prim.UnpackVersioned(iv)
		base := c.recOff(slot)
		for i := 0; i < cnt; i++ {
			o, _ := unpackDelMeta(c.ann[b+entWords*i+3].Load())
			rets[i] = c.state.Load(base + c.retSlot(o) + occ[o])
			occ[o]++
		}
		for i := 0; i < cnt; i++ {
			o, _ := unpackDelMeta(c.ann[b+entWords*i+3].Load())
			occ[o] = 0
		}
		if c.idx.Load(0) == iv {
			return
		}
		w.Wait()
	}
}

// RecoverVec resolves thread tid's interrupted vector after a crash: the
// caller re-supplies the original ops and seq. The block is rewritten first
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
	c.announce(tid, cnt, seq)
	if c.recWord(c.deactOff+tid) != seq&1 {
		c.p.perform(tid)
	}
	c.clearAnnounce(tid)
	c.collectRets(tid, cnt, rets)
}
