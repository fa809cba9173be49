// Package hashmap takes up the paper's closing open problem ("using more
// instances of PBcomb and PWFcomb for efficiently implementing recoverable
// hashing"): a detectably recoverable hash map built from S independent
// combining instances, one per shard.
//
// Each shard is a bounded open-addressing table (linear probing with
// tombstones) whose whole array lives in the shard's combining state, like
// PBheap's key array. Sharding restores the parallelism that a single
// combining instance would serialize: operations on different shards never
// contend, and each shard's persistence cost amortizes over its own
// combining degree.
//
// Keys are uint64 in [1, 2^64-3]: 0 marks an empty slot, ^0 is the
// NotFound/Full sentinel space, ^0-2 the tombstone.
package hashmap

import (
	"fmt"
	"time"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/prim"
	"pcomb/internal/sysarea"
	"pcomb/internal/vecbatch"
)

// Operation codes.
const (
	OpPut uint64 = 1
	OpGet uint64 = 2
	OpDel uint64 = 3
	// OpAdd adds A1 (two's complement, so it doubles as subtract) to the
	// key's value, inserting the delta for an absent key, and returns the new
	// value. Because an add changes the sum of all values by exactly its
	// delta, a pair of opposite adds conserves the total — the primitive the
	// cross-shard transfer transactions are built from.
	OpAdd uint64 = 4
	// OpLen returns the shard's live-key count (read-only, as OpGet).
	OpLen uint64 = 5
)

// NotFound is returned by Get/Delete for absent keys and by Put for fresh
// inserts (no previous value).
const NotFound = ^uint64(0)

// Full is returned by Put when the key's shard has no free slot.
const Full = ^uint64(0) - 1

const tombstone = ^uint64(0) - 2

// Kind selects the underlying combining protocol: Blocking shards on PBcomb,
// WaitFree on PWFcomb.
type Kind = core.Kind

const (
	Blocking = core.Blocking
	WaitFree = core.WaitFree
)

// shardObj is the sequential open-addressing table of one shard.
// State layout: [size, key_0, val_0, key_1, val_1, ...]. It marks every
// store, so a round copies and persists only the lines it wrote, not the
// whole table (core.SparseObject).
type shardObj struct{ slots int }

func (shardObj) MarksDirty() {}

func (o shardObj) StateWords() int { return 1 + 2*o.slots }

func (o shardObj) Init(s core.State) { s.Store(0, 0) }

// find probes for key: found is its slot, or -1 after the probe met an empty
// slot or wrapped; firstFree is the first slot an insert may reuse, or -1. It
// indexes modulo the slot count and visits each slot at most once, so it
// stays in bounds and terminates on any words — Read may run it on a record a
// combiner is overwriting.
func (o shardObj) find(s core.State, key uint64) (found, firstFree int) {
	start := int(mix(key) % uint64(o.slots))
	found, firstFree = -1, -1
	for i := 0; i < o.slots; i++ {
		idx := (start + i) % o.slots
		k := s.Load(1 + 2*idx)
		if k == key {
			return idx, firstFree
		}
		if k == tombstone && firstFree < 0 {
			firstFree = idx
			continue
		}
		if k == 0 {
			if firstFree < 0 {
				firstFree = idx
			}
			break
		}
	}
	return found, firstFree
}

// validKey reports whether key is outside the sentinel space.
func validKey(key uint64) bool { return key != 0 && key < tombstone }

// Read answers the read-only operations — OpGet and OpLen — from s alone
// (core.Reader); Apply answers them through it too.
func (o shardObj) Read(s core.State, op, key, _ uint64) uint64 {
	switch op {
	case OpGet:
		if validKey(key) {
			if found, _ := o.find(s, key); found >= 0 {
				return s.Load(1 + 2*found + 1)
			}
		}
	case OpLen:
		return s.Load(0)
	}
	return NotFound
}

func (o shardObj) Apply(env *core.Env, r *core.Request) {
	s := env.State
	key := r.A0
	switch {
	case r.Op == OpGet || r.Op == OpLen:
		r.Ret = o.Read(s, r.Op, key, 0)
		return
	case !validKey(key):
		r.Ret = NotFound
		return
	}
	found, firstFree := o.find(s, key)
	switch r.Op {
	case OpPut:
		if found >= 0 {
			r.Ret = s.Load(1 + 2*found + 1)
			s.Store(1+2*found+1, r.A1)
			env.MarkDirty(1+2*found+1, 1)
			return
		}
		if firstFree < 0 {
			r.Ret = Full
			return
		}
		s.Store(1+2*firstFree, key)
		s.Store(1+2*firstFree+1, r.A1)
		s.Store(0, s.Load(0)+1)
		env.MarkDirty(1+2*firstFree, 2)
		env.MarkDirty(0, 1)
		r.Ret = NotFound
	case OpDel:
		if found >= 0 {
			r.Ret = s.Load(1 + 2*found + 1)
			s.Store(1+2*found, tombstone)
			s.Store(0, s.Load(0)-1)
			env.MarkDirty(1+2*found, 1)
			env.MarkDirty(0, 1)
		} else {
			r.Ret = NotFound
		}
	case OpAdd:
		if found >= 0 {
			v := s.Load(1+2*found+1) + r.A1
			s.Store(1+2*found+1, v)
			env.MarkDirty(1+2*found+1, 1)
			r.Ret = v
			return
		}
		if firstFree < 0 {
			r.Ret = Full
			return
		}
		s.Store(1+2*firstFree, key)
		s.Store(1+2*firstFree+1, r.A1)
		s.Store(0, s.Load(0)+1)
		env.MarkDirty(1+2*firstFree, 2)
		env.MarkDirty(0, 1)
		r.Ret = r.A1
	default:
		r.Ret = NotFound
	}
}

// mix is prim.Mix (splitmix64), kept as a local alias for the hot paths.
func mix(x uint64) uint64 { return prim.Mix(x) }

// Map is a detectably recoverable concurrent hash map: S combining instances,
// one per shard, behind one system area. Its Flush commits a thread's staged
// window as one record, grouped by shard with each group announced as one
// vector: all or nothing after a crash, and Recover reports every shard group
// of an interrupted one. The root package exports it as pcomb.Map.
type Map struct {
	sysarea.EpochFront

	h      *pmem.Heap
	shards []core.Protocol
	nsh    int
	slots  int
	n      int

	// sys is the map's system area: one sequence-counter class per shard,
	// persisted out of band as the paper's system model prescribes, and the
	// record every operation, flush window and transaction commits through.
	sys *sysarea.Area

	// boards are the shards' posting boards (nil unless Options.Board).
	boards []board
}

// Options configures a map instance beyond the New defaults.
type Options struct {
	// Shards is the number of combining instances (0 = 8).
	Shards int
	// Capacity is the total slot count across shards (0 = 64 per shard).
	Capacity int
	// VecCap bounds one commit of several operations — a Submit/Flush
	// window, a transaction, a board sweep — and enables the async
	// Submit/Flush path (0 or 1 = scalar only, and no transactions). Part of
	// the persistent layout — re-open with the same value.
	VecCap int
	// Board routes scalar updates through each shard's posting board
	// (hierarchical combining): a thread posts its request and tries to take
	// the board's sweeper role, and whoever holds it announces every posted
	// request, its own included, as one delegated vector under its own tid.
	// Zero value: threads invoke their key's shard directly. The shards of a
	// board map are built with VecCap at least 2. Part of the persistent
	// layout.
	Board bool
	// Epoch switches the map to epoch-mode relaxed durability: shard rounds
	// apply and return volatile-fast, one shared epoch closer persists them
	// in the background, and a crash may lose the last open epoch's
	// operations (and only those; Recover reports an interrupted one of that
	// window with Certain=false). Use Sync/WaitDurable for per-operation
	// durability. A transaction is failure-atomic once its epoch has durably
	// closed. Part of the persistent layout.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode; 0 = no
	// ticker, epochs close only via Sync/CloseNow).
	EpochInterval time.Duration
}

// NewWith creates (or re-opens after a crash) a recoverable hash map with
// explicit options. Re-open with the same options and call Recover for every
// thread before new operations.
func NewWith(h *pmem.Heap, name string, n int, kind Kind, o Options) *Map {
	return NewOn(h, name, n, kind, o, nil)
}

// NewOn is NewWith on a caller-built system area sys, shared with other
// structures (nil: the map builds its own). The map's shards become sys's
// classes [0, Shards), built on sys's protocol, vector capacity and epoch in
// place of kind, Options.VecCap, Epoch and EpochInterval, and commit and
// stage through it: Recover resolves sys's whole record, and Flush commits
// sys's whole window.
func NewOn(h *pmem.Heap, name string, n int, kind Kind, o Options, sys *sysarea.Area) *Map {
	nshards, capacity := o.Shards, o.Capacity
	if nshards <= 0 {
		nshards = 8
	}
	if capacity < nshards {
		capacity = nshards * 64
	}
	m := &Map{h: h, nsh: nshards, slots: (capacity + nshards - 1) / nshards, n: n}
	if sys == nil {
		var ep *pmem.Epoch // non-nil in epoch-mode relaxed durability
		if o.Epoch {
			ep = pmem.NewEpoch(h, name, pmem.EpochOpts{Interval: o.EpochInterval})
		}
		vcap := o.VecCap
		if o.Board {
			vcap = max(vcap, 2)
		}
		sys = sysarea.New(h, name+"/hashmap.sys", n, nshards, kind, ep, vcap)
	}
	obj := shardObj{slots: m.slots}
	for s := 0; s < nshards; s++ {
		m.shards = append(m.shards, sys.Build(s, fmt.Sprintf("%s/shard%d", name, s), obj))
	}
	m.sys = sys
	m.EpochFront = sysarea.EpochFront{Front: sys.Front(0, nshards)}
	if o.Board {
		m.boards = newBoards(m.shards, n, sys.Payload())
	}
	return m
}

// Shards returns the shard count.
func (m *Map) Shards() int { return m.nsh }

func (m *Map) shardOf(key uint64) int {
	return int(mix(key) >> 33 % uint64(m.nsh))
}

// ShardOf returns the shard index serving key (test harnesses use it to
// build shard-homogeneous batches).
func (m *Map) ShardOf(key uint64) int { return m.shardOf(key) }

// invoke runs one operation on its key's shard through the system area:
// directly, or on a board map by posting it to the shard's board between the
// record's Begin and End.
func (m *Map) invoke(tid int, op, key, val uint64) uint64 {
	sh := m.shardOf(key)
	if m.boards == nil {
		return m.sys.Invoke(tid, sh, op, key, val)
	}
	seq := m.sys.Begin(tid, sh, op, key, val)
	ret := m.perform(tid, sh, op, key, val, seq)
	m.sys.End(tid, sh, ret)
	return ret
}

// Put maps key to val, returning the previous value and whether one
// existed. existed=false with prev==Full means the shard was full.
func (m *Map) Put(tid int, key, val uint64) (prev uint64, existed bool) {
	r := m.invoke(tid, OpPut, key, val)
	if r == NotFound || r == Full {
		return r, false
	}
	return r, true
}

// Get returns the value mapped to key. It is a validated read of the shard's
// last durable record (core's Read): it announces nothing, writes no
// system-area record and issues no persistence instruction, sees every
// operation that returned before it was called, and never returns state a
// crash could roll back (under Options.Epoch it sees the newest state, within
// the epoch's loss window like any operation). A crash-interrupted Get is
// simply re-issued; Recover does not report it. Gets staged with SubmitGet
// run inside their vector's round as before.
func (m *Map) Get(tid int, key uint64) (uint64, bool) {
	r := m.sys.Read(tid, m.shardOf(key), OpGet, key, 0)
	if r == NotFound {
		return 0, false
	}
	return r, true
}

// Delete removes key, returning the removed value.
func (m *Map) Delete(tid int, key uint64) (uint64, bool) {
	r := m.invoke(tid, OpDel, key, 0)
	if r == NotFound {
		return 0, false
	}
	return r, true
}

// Add adds delta (two's complement, so it doubles as subtract) to key's
// value, inserting delta on a fresh key, and returns the NEW value (or Full
// when the shard had no room) — the map's fetch&add.
func (m *Map) Add(tid int, key, delta uint64) uint64 {
	return m.invoke(tid, OpAdd, key, delta)
}

// SubmitPut stages a Put for the async pipelined path (requires VecCap > 1);
// the result arrives through the Future (same encoding as invoke: previous
// value, NotFound, or Full). The staged window commits on Flush, on a
// Future's Wait, or when it reaches VecCap ops; a crash before that loses it
// wholesale — pipelining trades per-op commit for per-window commit.
func (m *Map) SubmitPut(tid int, key, val uint64) vecbatch.Future {
	return m.sys.Submit(tid, m.shardOf(key), OpPut, key, val)
}

// SubmitGet stages a Get (requires VecCap > 1).
func (m *Map) SubmitGet(tid int, key uint64) vecbatch.Future {
	return m.sys.Submit(tid, m.shardOf(key), OpGet, key, 0)
}

// SubmitDelete stages a Delete (requires VecCap > 1).
func (m *Map) SubmitDelete(tid int, key uint64) vecbatch.Future {
	return m.sys.Submit(tid, m.shardOf(key), OpDel, key, 0)
}

// SubmitAdd stages an Add (requires VecCap > 1); the Future's Wait returns
// the new value, as Add.
func (m *Map) SubmitAdd(tid int, key, delta uint64) vecbatch.Future {
	return m.sys.Submit(tid, m.shardOf(key), OpAdd, key, delta)
}

// commit runs ops as one system-area commit grouped by shard (program order
// kept within a shard — the reordering across shards is unobservable, as the
// ops commute): a transaction (Txn), the same commit a flushed window is.
func (m *Map) commit(tid int, ops []core.VecOp, rets []uint64) {
	m.sys.InvokeGrouped(tid, ops, rets, m.classOf)
}

// classOf is the system-area class — the shard — of a transaction's op.
func (m *Map) classOf(_ int, o core.VecOp) int { return m.shardOf(o.A0) }

// Len returns the number of live keys: each shard's count is a validated read
// of its last durable record, safe beside running operations; the sum is not
// a snapshot across shards.
func (m *Map) Len() int {
	total := 0
	for _, sh := range m.shards {
		total += int(sh.Peek(OpLen, 0, 0))
	}
	return total
}

// Range calls f for every key/value pair. Quiescent use only.
func (m *Map) Range(f func(key, val uint64) bool) {
	for _, sh := range m.shards {
		st := sh.CurrentState()
		for i := 0; i < m.slots; i++ {
			k := st.Load(1 + 2*i)
			if k == 0 || k == tombstone {
				continue
			}
			if !f(k, st.Load(1+2*i+1)) {
				return
			}
		}
	}
}
