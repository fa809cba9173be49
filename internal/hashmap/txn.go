package hashmap

import "pcomb/internal/core"

// Leg is one operation of a cross-shard transaction.
type Leg struct {
	Op  uint64
	Key uint64
	Val uint64
}

// Txn executes legs as one multi-shard transaction and returns the per-leg
// results in leg order. A transaction is a window: one system-area commit
// (sysarea.Area.InvokeGrouped), exactly what Flush makes of staged ops. The
// legs are grouped by shard, recorded with their groups in tid's record, and
// each group runs as a single vectorized announcement. A crash before the
// record's commit point discards the transaction wholesale (no shard was
// invoked, no counter moved); after it, Recover replays every group —
// parity-gated, so already-applied groups fetch instead of re-executing —
// and reports the transaction as its legs, shard group by shard group: it
// completes exactly once.
//
// Failure-atomic, not isolated: the groups apply one shard at a time, and a
// thread reading between two of them sees the transaction half-applied
// (ROADMAP, "Cross-shard transactions are failure-atomic but not isolated").
//
// Requires VecCap > 1, and len(legs) must be at most VecCap. Legs are applied
// in program order within a shard but groups of different shards are not
// mutually ordered — use commuting legs (OpAdd, distinct-key OpPut) for
// cross-shard invariants.
func (m *Map) Txn(tid int, legs []Leg) []uint64 {
	if len(legs) == 0 {
		return nil
	}
	ops := make([]core.VecOp, len(legs))
	for i, l := range legs {
		ops[i] = core.VecOp{Op: l.Op, A0: l.Key, A1: l.Val}
	}
	rets := make([]uint64, len(legs))
	m.commit(tid, ops, rets)
	return rets
}

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
	m.commit(tid, ops[:], r[:])
	return r[0], r[1]
}

// PutAll maps every key/value pair (Op fields are ignored) as one
// failure-atomic (not isolated, see Txn) multi-key put across shards. Returns
// the per-pair previous values (NotFound for fresh inserts).
func (m *Map) PutAll(tid int, pairs []Leg) []uint64 {
	legs := make([]Leg, len(pairs))
	for i, p := range pairs {
		legs[i] = Leg{Op: OpPut, Key: p.Key, Val: p.Val}
	}
	return m.Txn(tid, legs)
}

// SumValues returns the sum (mod 2^64) of all values — the conservation
// invariant TransferAdd preserves. Quiescent use only.
func (m *Map) SumValues() uint64 {
	var sum uint64
	m.Range(func(_, v uint64) bool { sum += v; return true })
	return sum
}
