package pcomb

import "pcomb/internal/hashmap"

// Map is a detectably recoverable concurrent hash map built from one
// combining instance per shard — the sharded-combining construction the
// paper's Section 8 poses as an open problem. It is hashmap.Map itself: `go
// doc pcomb/internal/hashmap.Map` lists its own methods (Put, Get, Delete,
// Add, the Submit family and the transactions), and Recover, SetHistory,
// SetProbe, Flush, Pending and the epoch accessors are sysarea.EpochFront's.
type Map = hashmap.Map

// MapOptions tunes a map instance; the zero value is sensible. Its fields are
// hashmap.Options's.
type MapOptions = hashmap.Options

// NewMap creates — or, after Crash, re-opens — a recoverable hash map.
func (s *System) NewMap(name string, threads int, kind Kind, opts ...MapOptions) *Map {
	var o MapOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return hashmap.NewWith(s.heap, name, threads, kind, o)
}

// ShardedMap is the map built for the sharded combining fabric: NewShardedMap
// returns a Map whose scalar updates go through each shard's posting board
// (hierarchical combining) unless Flat, and whose windows of VecCap = 16
// carry cross-shard transactions (TransferAdd / PutAll / Txn).
type ShardedMap = Map

// ShardedMapOptions tunes a sharded map built by NewShardedMap; the zero value
// is sensible.
type ShardedMapOptions struct {
	// Fabric is the number of combining shards (0 = 4).
	Fabric int
	// Capacity is the total slot count across shards (0 = 64 per shard).
	Capacity int
	// Flat disables hierarchical combining (no posting boards; threads
	// invoke their key's shard directly) — the naive-split baseline.
	Flat bool
}

// TxnLeg is one operation of a cross-shard transaction (op codes follow the
// map: 1 Put, 2 Get, 3 Delete, 4 Add).
type TxnLeg = hashmap.Leg

// NewShardedMap creates — or, after Crash, re-opens — a map for threads
// client threads with the fabric's defaults: 4 shards, windows of 16, and a
// posting board per shard unless Flat. A thread posts its update on its key's
// shard board and then tries to take the board's sweeper role (one try-lock
// word); whoever wins serves every request posted, its own among them, as one
// delegated announcement, and the others wait for their slot. That is the
// paper's combiner one level up, not a server thread: the map starts no
// goroutine, and a batch is the posts that landed while the previous sweeper
// was inside its psync. Options beyond these (Epoch, another VecCap) are
// NewMap's, with Board set.
func (s *System) NewShardedMap(name string, threads int, kind Kind, opts ...ShardedMapOptions) *ShardedMap {
	var o ShardedMapOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	mo := MapOptions{Shards: o.Fabric, Capacity: o.Capacity, VecCap: 16, Board: !o.Flat}
	if mo.Shards <= 0 {
		mo.Shards = 4
	}
	return s.NewMap(name, threads, kind, mo)
}
