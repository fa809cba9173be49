package pcomb

import "pcomb/internal/hashmap"

// Map is a detectably recoverable concurrent hash map built from multiple
// combining instances (one per shard) — the sharded-combining construction
// the paper's Section 8 poses as an open problem. Keys must be in
// [1, 2^64-3]; values are arbitrary uint64.
type Map struct {
	m *hashmap.Map
}

// MapOptions tunes a map instance; the zero value is sensible. Shards
// (0 = 8) and Capacity (0 = 64 per shard) size it and Dense disables the
// shards' sparse persistence. VecCap > 1 bounds one multi-op commit and
// enables both the async Submit/Flush API and the cross-shard transactions
// (Txn, TransferAdd, PutAll): a transaction is a window. Board routes scalar
// updates through each shard's posting board (hierarchical combining, as
// NewShardedMap builds by default); the zero value invokes the key's shard
// directly. Epoch/EpochInterval switch it to epoch-mode relaxed durability
// (group commit: a crash may lose the operations of the last open epoch, and
// only those — Recover reports an interrupted one of that window with
// Certain=false; use Sync/WaitDurable for per-operation durability). VecCap,
// Board and Epoch are part of the persistent layout: re-open with the same
// values.
type MapOptions = hashmap.Options

// NewMap creates — or, after Crash, re-opens — a recoverable hash map.
func (s *System) NewMap(name string, threads int, kind Kind, opts ...MapOptions) *Map {
	var o MapOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return &Map{m: hashmap.NewWith(s.heap, name, threads, kindOf[hashmap.Kind](kind), o)}
}

// Put maps key to val for thread tid; existed reports whether a previous
// value was replaced (prev is Empty-1 when the shard was full).
func (m *Map) Put(tid int, key, val uint64) (prev uint64, existed bool) {
	return m.m.Put(tid, key, val)
}

// Get returns the value mapped to key. It is a validated read of the key's
// shard's last durable state: it announces nothing, records nothing and issues
// no persistence instruction, sees every operation that returned before it was
// called, and never returns state a crash could roll back (under Epoch it sees
// the newest state, inside the epoch's loss window like any operation). A
// crash-interrupted Get is simply re-issued; Recover does not report it.
// SubmitGet still runs inside its vector's round.
func (m *Map) Get(tid int, key uint64) (uint64, bool) { return m.m.Get(tid, key) }

// Delete removes key, returning the removed value.
func (m *Map) Delete(tid int, key uint64) (uint64, bool) { return m.m.Delete(tid, key) }

// Add adds delta (two's complement, so negative deltas subtract) to key's
// value, inserting delta for a fresh key, and returns the new value — the
// map's fetch&add (Full when the shard had no room).
func (m *Map) Add(tid int, key, delta uint64) uint64 { return m.m.Add(tid, key, delta) }

// Recover resolves what thread tid had in flight at the crash — a scalar
// operation or a whole Flush, every shard group of it — exactly once, as
// Queue.Recover.
// On an Epoch map, Sync afterwards before trusting the recovered state
// durable.
func (m *Map) Recover(tid int) []Resolved { return m.m.Recover(tid) }

// Sync forces an epoch close: everything applied before the call is durable
// when it returns. No-op in strict mode.
func (m *Map) Sync() { m.m.Epoch().CloseNow() }

// EpochNow returns the open epoch — the durability label of operations
// returning now (Epoch mode only). Pass a label read after an operation
// returned to WaitDurable to block until that operation is durable.
func (m *Map) EpochNow() uint64 { return m.m.Epoch().Now() }

// EpochClosed returns the last durably closed epoch (Epoch mode only).
func (m *Map) EpochClosed() uint64 { return m.m.Epoch().Closed() }

// WaitDurable blocks until epoch target is durably closed; it returns false
// if the system crashed first (Epoch mode only).
func (m *Map) WaitDurable(target uint64) bool { return m.m.Epoch().Wait(target) }

// Close halts the epoch's background closer (if any) after a final close;
// strict mode starts no goroutine and has nothing to stop. Idempotent; call
// while quiescent.
func (m *Map) Close() { m.m.Close() }

// SubmitPut stages a Put on the async pipelined path (requires
// MapOptions.VecCap > 1); the Future's Wait returns the previous value (or
// the map's not-found/full sentinels). The staged batch commits on Flush,
// Wait, or when it reaches VecCap ops; a crash before that loses it
// wholesale — pipelining trades per-op commit for per-batch commit.
func (m *Map) SubmitPut(tid int, key, val uint64) Future { return m.m.SubmitPut(tid, key, val) }

// SubmitGet stages a Get (requires MapOptions.VecCap > 1).
func (m *Map) SubmitGet(tid int, key uint64) Future { return m.m.SubmitGet(tid, key) }

// SubmitDelete stages a Delete (requires MapOptions.VecCap > 1).
func (m *Map) SubmitDelete(tid int, key uint64) Future { return m.m.SubmitDelete(tid, key) }

// SubmitAdd stages an Add (requires MapOptions.VecCap > 1); the Future's
// Wait returns the new value.
func (m *Map) SubmitAdd(tid int, key, delta uint64) Future { return m.m.SubmitAdd(tid, key, delta) }

// Flush commits thread tid's staged operations durably, all or nothing. Ops
// are grouped by shard and each group is one vectorized announcement, but
// the whole window is one system-area record: once it is durable, a crash
// anywhere in the flush is completed, every group of it, by Recover.
func (m *Map) Flush(tid int) { m.m.Flush(tid) }

// Pending returns the number of staged, unflushed ops of tid.
func (m *Map) Pending(tid int) int { return m.m.Pending(tid) }

// Len returns the number of live keys, summed over per-shard reads of the last
// durable state: safe beside running operations, but not a snapshot across
// shards.
func (m *Map) Len() int { return m.m.Len() }

// Range iterates all pairs (quiescent use only).
func (m *Map) Range(f func(key, val uint64) bool) { m.m.Range(f) }

// SetHistory installs (or, with nil, removes) an operation recorder.
func (m *Map) SetHistory(h HistoryLog) { m.m.SetHistory(h) }

// Shards returns the shard count.
func (m *Map) Shards() int { return m.m.Shards() }

// TransferAdd moves amount from key `from` to key `to` as one failure-atomic,
// not isolated, transaction (see Txn); the sum of all values (mod 2^64) is
// conserved across the transfer, crash included. Requires VecCap > 1.
func (m *Map) TransferAdd(tid int, from, to, amount uint64) (fromNew, toNew uint64) {
	return m.m.TransferAdd(tid, from, to, amount)
}

// PutAll maps every pair (Op fields are ignored) as one failure-atomic, not
// isolated, transaction (see Txn), returning the per-pair previous values.
func (m *Map) PutAll(tid int, pairs []TxnLeg) []uint64 { return m.m.PutAll(tid, pairs) }

// Txn executes at most VecCap legs as one multi-shard transaction (see
// TxnLeg); results are per-leg, in leg order. It is one commit, like a Flush
// window, and failure-atomic: a crash leaves all of it or none of it, and
// Recover reports a committed one as its legs, shard group by shard group. It
// is not isolated: the shard groups apply one after another, and a concurrent
// reader can see one applied and the next not yet (ROADMAP, "Cross-shard
// transactions are failure-atomic but not isolated"). Legs of different
// shards are not mutually ordered — use commuting legs for cross-shard
// invariants.
func (m *Map) Txn(tid int, legs []TxnLeg) []uint64 { return m.m.Txn(tid, legs) }

// SumValues returns the sum (mod 2^64) of all values — the invariant
// TransferAdd conserves (quiescent use only).
func (m *Map) SumValues() uint64 { return m.m.SumValues() }
