package fabric

import (
	"fmt"

	"pcomb/internal/core"
	"pcomb/internal/sysarea"
)

// Per-thread transaction record — the redo log, in its own region beside the
// system area: [txOp, txDone, (shard,seq,cnt) x maxGroups, (op,key,val) x
// maxLegs]. Its stores are system-persisted like the system area's.
const (
	txOpW = iota
	txDoneW
	txHdrWords
)

// txnMark in the txOp word marks a committed, possibly unfinished
// transaction; the low bits carry the group count.
const txnMark = uint64(1) << 63

// Leg is one operation of a cross-shard transaction.
type Leg struct {
	Op  uint64
	Key uint64
	Val uint64
}

// txnGroup is one shard's share of a transaction: ops[off:off+cnt] of the
// thread's scratch, announced as one vector under sequence number seq.
type txnGroup struct {
	sh       int
	seq      uint64
	off, cnt int
}

// txnScratch is one thread's transaction working set, sized in New from
// maxGrps and maxLegs so that a transaction allocates nothing, and padded so
// neighbouring threads' slice headers never share a cache line.
type txnScratch struct {
	grps []txnGroup   // participant shards, in first-appearance order
	pos  []int        // leg i's group while grouping, then its index in ops
	ops  []core.VecOp // the legs in durable order: group by group
	rets []uint64     // their results, in the same order
	_    [32]byte
}

// Txn executes legs as one atomic multi-shard transaction and returns the
// per-leg results in leg order. The legs are grouped by shard and each group
// runs as a single vectorized announcement under tid's slot; atomicity across
// groups comes from the durable transaction record:
//
//	prepare:  txOp=0 (disarm) -> legs, groups (shard, seq, cnt) -> txDone=0
//	commit:   txOp = txnMark | ngroups          (single-word commit point)
//	apply:    counters move, each group InvokeVec's in first-appearance order
//	finish:   txDone=1
//
// A crash before the commit word discards the transaction wholesale (no
// shard was invoked, no counter moved); after it, Recover replays every
// group — parity-gated, so already-applied groups fetch instead of
// re-executing — and the transaction completes exactly once.
//
// len(legs) must be at most MaxLegs (itself at most VecCap, so one shard's
// legs always fit one vector). Legs are applied in program order within a
// shard but groups of different shards are not mutually ordered — use
// commuting legs (OpAdd, distinct-key OpPut) for cross-shard invariants.
func (m *Map) Txn(tid int, legs []Leg) []uint64 {
	if len(legs) == 0 {
		return nil
	}
	rets := make([]uint64, len(legs))
	m.runTxn(tid, legs, rets)
	return rets
}

// runTxn is Txn writing leg i's result to rets[i]; it keeps neither slice and
// allocates nothing.
func (m *Map) runTxn(tid int, legs []Leg, rets []uint64) {
	// Reject before the scratch is touched.
	if len(legs) > m.maxLegs {
		panic(fmt.Sprintf("fabric: %d legs exceed MaxLegs %d", len(legs), m.maxLegs))
	}
	txb := tid * m.txStride
	x := &m.txs[tid]

	// Group legs by shard in first-appearance order, preserving program
	// order within a shard: count each group, lay the groups out back to
	// back, then drop every leg into its group's next free place.
	grps := x.grps[:0]
	for i, l := range legs {
		sh := m.shardOf(l.Key)
		g := 0
		for g < len(grps) && grps[g].sh != sh {
			g++
		}
		if g == len(grps) {
			grps = append(grps, txnGroup{sh: sh, seq: m.sys.Seq(tid, sh) + 1})
		}
		grps[g].cnt++
		x.pos[i] = g
	}
	off := 0
	for g := range grps {
		grps[g].off = off
		off += grps[g].cnt
		grps[g].cnt = 0 // counted up again as the legs are placed
	}
	ops, grets := x.ops[:len(legs)], x.rets[:len(legs)]
	for i, l := range legs {
		g := &grps[x.pos[i]]
		x.pos[i] = g.off + g.cnt
		ops[x.pos[i]] = core.VecOp{Op: l.Op, A0: l.Key, A1: l.Val}
		g.cnt++
	}

	h := m.sys.History()
	if h != nil {
		// One invocation per leg, before the transaction's first persistence
		// event: a crash anywhere inside leaves exactly these legs pending.
		// Begins follow GROUP order — the order the legs are durably laid
		// out and the order recovery resolves them in.
		for _, op := range ops {
			h.Begin(tid, op.Op, op.A0, op.A1)
		}
	}

	// Prepare. Disarm the commit word first: a crash while the record is
	// being rebuilt must read as "no transaction in flight".
	m.txn.DirectStore(txb+txOpW, 0)
	for gi, g := range grps {
		for li := g.off; li < g.off+g.cnt; li++ {
			lb := txb + m.legOff + 3*li
			m.txn.DirectStore(lb, ops[li].Op)
			m.txn.DirectStore(lb+1, ops[li].A0)
			m.txn.DirectStore(lb+2, ops[li].A1)
		}
		gb := txb + txHdrWords + 3*gi
		m.txn.DirectStore(gb, uint64(g.sh))
		m.txn.DirectStore(gb+1, g.seq)
		m.txn.DirectStore(gb+2, uint64(g.cnt))
	}
	m.txn.DirectStore(txb+txDoneW, 0)

	// Commit point: one durable word flip.
	m.txn.DirectStore(txb+txOpW, txnMark|uint64(len(grps)))

	// Apply: counters move only after the commit word, so recovery can
	// always re-derive them from the group records.
	for _, g := range grps {
		m.sys.RollSeq(tid, g.sh, g.seq)
	}
	for _, g := range grps {
		m.shards[g.sh].InvokeVec(tid, ops[g.off:g.off+g.cnt], g.seq, grets[g.off:g.off+g.cnt])
	}
	m.txn.DirectStore(txb+txDoneW, 1)
	if h != nil {
		// Ends in Begin (= group) order, matching the recorder's pending
		// queue — and only after txDone, past the last crashable point: a
		// crash between group applications must leave EVERY leg pending, so
		// the restarted recovery's Resolves meet an all-pending queue
		// instead of re-completing legs an earlier pass already closed.
		for _, r := range grets {
			h.End(tid, r)
		}
	}
	for i := range legs {
		rets[i] = grets[x.pos[i]]
	}
}

// TransferAdd atomically moves amount from key `from` to key `to` (two OpAdd
// legs with opposite two's-complement deltas — the sum of all values mod
// 2^64 is invariant across the transfer, crash or no crash). Returns the two
// new values.
func (m *Map) TransferAdd(tid int, from, to, amount uint64) (fromNew, toNew uint64) {
	legs := [2]Leg{
		{Op: OpAdd, Key: from, Val: -amount},
		{Op: OpAdd, Key: to, Val: amount},
	}
	var r [2]uint64
	m.runTxn(tid, legs[:], r[:])
	return r[0], r[1]
}

// PutAll atomically maps every key/value pair (multi-key put across shards).
// Returns the per-pair previous values (NotFound for fresh inserts).
func (m *Map) PutAll(tid int, pairs []Leg) []uint64 {
	var buf [8]Leg // the default MaxLegs; a longer list spills to the heap
	legs := buf[:0]
	for _, p := range pairs {
		legs = append(legs, Leg{Op: OpPut, Key: p.Key, Val: p.Val})
	}
	return m.Txn(tid, legs)
}

// recoverTxn resolves thread tid's interrupted cross-shard transaction —
// exactly once — and reports every leg's result in durable (group) order.
// ok is false when no committed transaction was in flight: either none was
// running, or the crash hit before the commit word, in which case the
// transaction is discarded wholesale (no shard ever saw it).
//
// The legs are NOT reported to the history here but by the caller, after
// txDone and so past the last crashable point: if a second crash unwinds a
// RecoverVec below, the retried pass replays every group and must find all
// legs still pending (restartability — a half-resolved queue would mis-attach
// responses to later legs).
func (m *Map) recoverTxn(tid int) (legs []sysarea.Resolved, ok bool) {
	txb := tid * m.txStride
	txop := m.txn.Load(txb + txOpW)
	if txop&txnMark == 0 || m.txn.Load(txb+txDoneW) == 1 {
		return nil, false
	}
	ngroups := int(txop &^ txnMark)
	li := 0
	for gi := 0; gi < ngroups; gi++ {
		gb := txb + txHdrWords + 3*gi
		sh := int(m.txn.Load(gb))
		seq := m.txn.Load(gb + 1)
		cnt := int(m.txn.Load(gb + 2))
		m.sys.RollSeq(tid, sh, seq)
		ops := make([]core.VecOp, cnt)
		for i := range ops {
			lb := txb + m.legOff + 3*(li+i)
			ops[i] = core.VecOp{Op: m.txn.Load(lb), A0: m.txn.Load(lb + 1), A1: m.txn.Load(lb + 2)}
		}
		rets := make([]uint64, cnt)
		// RecoverVec is parity-gated: a group the crash already applied
		// fetches its responses, an unapplied one re-executes — so the
		// replay converges to exactly-once whatever the crash point.
		m.shards[sh].RecoverVec(tid, ops, seq, rets)
		for i := range ops {
			legs = append(legs, sysarea.Resolved{Op: ops[i].Op, A0: ops[i].A0, A1: ops[i].A1, Result: rets[i], Certain: true})
		}
		li += cnt
	}
	m.txn.DirectStore(txb+txDoneW, 1)
	return legs, true
}
