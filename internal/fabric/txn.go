package fabric

import "pcomb/internal/core"

// Leg is one operation of a cross-shard transaction.
type Leg struct {
	Op  uint64
	Key uint64
	Val uint64
}

// Txn executes legs as one multi-shard transaction and returns the per-leg
// results in leg order. The transaction is one system-area commit
// (sysarea.Area.InvokeGrouped): the legs are grouped by shard, recorded with
// their groups in tid's record, and each group runs as a single vectorized
// announcement. A crash before the record's commit point discards the
// transaction wholesale (no shard was invoked, no counter moved); after it,
// Recover replays every group — parity-gated, so already-applied groups fetch
// instead of re-executing — and the transaction completes exactly once.
//
// Failure-atomic, not isolated: the groups apply one shard at a time, and a
// thread reading between two of them sees the transaction half-applied
// (ROADMAP, "Cross-shard transactions are failure-atomic but not isolated").
//
// len(legs) must be at most MaxLegs (itself at most VecCap, so one shard's
// legs always fit one vector). Legs are applied in program order within a
// shard but groups of different shards are not mutually ordered — use
// commuting legs (OpAdd, distinct-key OpPut) for cross-shard invariants.
func (m *Map) Txn(tid int, legs []Leg) []uint64 {
	if len(legs) == 0 {
		return nil
	}
	ops := make([]core.VecOp, len(legs))
	for i, l := range legs {
		ops[i] = core.VecOp{Op: l.Op, A0: l.Key, A1: l.Val}
	}
	rets := make([]uint64, len(legs))
	m.sys.InvokeGrouped(tid, ops, rets, m.classOf)
	return rets
}

// classOf is the system-area class — the shard — of a transaction leg.
func (m *Map) classOf(o core.VecOp) int { return m.shardOf(o.A0) }

// TransferAdd moves amount from key `from` to key `to` as one failure-atomic
// (not isolated, see Txn) transaction of two OpAdd legs with opposite two's-
// complement deltas — the sum of all values mod 2^64 is invariant across the
// transfer, crash or no crash. Returns the two new values. Allocates nothing.
func (m *Map) TransferAdd(tid int, from, to, amount uint64) (fromNew, toNew uint64) {
	ops := [2]core.VecOp{
		{Op: OpAdd, A0: from, A1: -amount},
		{Op: OpAdd, A0: to, A1: amount},
	}
	var r [2]uint64
	m.sys.InvokeGrouped(tid, ops[:], r[:], m.classOf)
	return r[0], r[1]
}

// PutAll maps every key/value pair as one failure-atomic (not isolated, see
// Txn) multi-key put across shards. Returns the per-pair previous values
// (NotFound for fresh inserts).
func (m *Map) PutAll(tid int, pairs []Leg) []uint64 {
	var buf [8]Leg // the default MaxLegs; a longer list spills to the heap
	legs := buf[:0]
	for _, p := range pairs {
		legs = append(legs, Leg{Op: OpPut, Key: p.Key, Val: p.Val})
	}
	return m.Txn(tid, legs)
}
