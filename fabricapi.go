package pcomb

import (
	"time"

	"pcomb/internal/fabric"
)

// ShardedMap is the sharded combining fabric: N independent recoverable
// combining shards behind a consistent-hash router, with hierarchical
// combining and cross-shard transactions (TransferAdd / PutAll / Txn) that
// are failure-atomic, not isolated (see Txn). Keys must be in [1, 2^64-3].
//
// Compared to Map, ShardedMap adds the Fabric dimension. A thread posts its
// request on its key's shard board and then tries to take the board's sweeper
// role (one try-lock word); whoever wins serves every request posted, its own
// among them, as one delegated announcement, and the others wait for their
// slot. That is the paper's combiner one level up — announce, try to become
// the combiner, serve everyone announced — not a server thread: the fabric
// starts no goroutine, and a batch is the posts that landed while the previous
// sweeper was inside its psync. Per-shard combining degree so stays high even
// when each shard sees only mild per-thread concurrency.
type ShardedMap struct {
	f *fabric.Map
}

// ShardedMapOptions tunes a fabric instance; the zero value is sensible.
type ShardedMapOptions struct {
	// Fabric is the number of combining shards (0 = 4).
	Fabric int
	// Capacity is the total slot count across shards (0 = 64 per shard).
	Capacity int
	// VecCap bounds one board sweep and one transaction shard group
	// (0 = 16). Part of the persistent layout — re-open with the same value.
	VecCap int
	// Flat disables hierarchical combining (no posting boards; threads
	// invoke their key's shard directly) — the naive-split baseline.
	Flat bool
	// MaxLegs bounds a transaction's leg count (0 = 8, capped at VecCap, at
	// least 2). Part of the persistent layout.
	MaxLegs int
	// Epoch switches the fabric to epoch-mode relaxed durability. The
	// cross-shard failure-atomicity guarantee is specified for strict mode;
	// in epoch mode a transaction is failure-atomic once its epoch durably
	// closed.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode).
	EpochInterval time.Duration
}

// TxnLeg is one operation of a cross-shard transaction (op codes follow the
// map: 1 Put, 2 Get, 3 Delete, 4 Add).
type TxnLeg = fabric.Leg

// NewShardedMap creates — or, after Crash, re-opens — a sharded combining
// fabric for threads client threads. Call Close before discarding the
// instance (it stops the epoch's background closer, in Epoch mode).
func (s *System) NewShardedMap(name string, threads int, kind Kind, opts ...ShardedMapOptions) *ShardedMap {
	var o ShardedMapOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	k := fabric.Blocking
	if kind == WaitFree {
		k = fabric.WaitFree
	}
	return &ShardedMap{f: fabric.New(s.heap, name, threads, fabric.Options{
		Shards:        o.Fabric,
		Capacity:      o.Capacity,
		Kind:          k,
		VecCap:        o.VecCap,
		Flat:          o.Flat,
		MaxLegs:       o.MaxLegs,
		Epoch:         o.Epoch,
		EpochInterval: o.EpochInterval,
	})}
}

// Put maps key to val for thread tid.
func (m *ShardedMap) Put(tid int, key, val uint64) (prev uint64, existed bool) {
	return m.f.Put(tid, key, val)
}

// Get returns the value mapped to key. It is a validated read of the key's
// shard's last durable state, with or without Flat: it announces nothing,
// records nothing and issues no persistence instruction, sees every operation
// that returned before it was called, and never returns state a crash could
// roll back (under Epoch it sees the newest state, inside the epoch's loss
// window like any operation). A crash-interrupted Get is simply re-issued;
// Recover does not report it.
func (m *ShardedMap) Get(tid int, key uint64) (uint64, bool) { return m.f.Get(tid, key) }

// Delete removes key, returning the removed value.
func (m *ShardedMap) Delete(tid int, key uint64) (uint64, bool) { return m.f.Delete(tid, key) }

// Add adds delta (two's complement) to key's value, inserting delta for an
// absent key, and returns the new value.
func (m *ShardedMap) Add(tid int, key, delta uint64) uint64 { return m.f.Add(tid, key, delta) }

// TransferAdd moves amount from key `from` to key `to` as one failure-atomic,
// not isolated, transaction (see Txn); the sum of all values (mod 2^64) is
// conserved across the transfer, crash included.
func (m *ShardedMap) TransferAdd(tid int, from, to, amount uint64) (fromNew, toNew uint64) {
	return m.f.TransferAdd(tid, from, to, amount)
}

// PutAll maps every pair (Op fields are ignored) as one failure-atomic, not
// isolated, transaction (see Txn), returning the per-pair previous values.
func (m *ShardedMap) PutAll(tid int, pairs []TxnLeg) []uint64 { return m.f.PutAll(tid, pairs) }

// Txn executes legs as one multi-shard transaction (see TxnLeg); results are
// per-leg, in leg order. It is failure-atomic: a crash leaves all of it or
// none of it. It is not isolated: the shard groups apply one after another,
// and a concurrent reader can see one applied and the next not yet (ROADMAP,
// "Cross-shard transactions are failure-atomic but not isolated"). Legs of
// different shards are not mutually ordered — use commuting legs for
// cross-shard invariants.
func (m *ShardedMap) Txn(tid int, legs []TxnLeg) []uint64 { return m.f.Txn(tid, legs) }

// Recover resolves what thread tid had in flight at the crash, exactly once:
// an interrupted scalar operation is one Resolved, a committed cross-shard
// transaction is replayed on every shard and reported as its legs (in the
// order its record holds them: shard group by shard group), and a transaction
// the crash hit before its commit point is discarded wholesale and reports
// nothing. Call for every tid after re-opening.
func (m *ShardedMap) Recover(tid int) []Resolved { return m.f.Recover(tid) }

// Close stops the epoch's background closer (strict mode runs no goroutine
// and has nothing to stop). Idempotent; call while quiescent.
func (m *ShardedMap) Close() { m.f.Close() }

// Shards returns the fabric's shard count.
func (m *ShardedMap) Shards() int { return m.f.Shards() }

// Sync forces an epoch close (no-op in strict mode).
func (m *ShardedMap) Sync() { m.f.Sync() }

// Len returns the number of live keys, summed over per-shard reads of the last
// durable state: safe beside running operations, but not a snapshot across
// shards.
func (m *ShardedMap) Len() int { return m.f.Len() }

// Range iterates all pairs (quiescent use only).
func (m *ShardedMap) Range(f func(key, val uint64) bool) { m.f.Range(f) }

// SumValues returns the sum (mod 2^64) of all values — the invariant
// TransferAdd conserves (quiescent use only).
func (m *ShardedMap) SumValues() uint64 { return m.f.SumValues() }

// SetHistory installs (or, with nil, removes) an operation recorder.
func (m *ShardedMap) SetHistory(h HistoryLog) { m.f.SetHistory(h) }
