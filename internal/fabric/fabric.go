// Package fabric is a sharded combining fabric: a router layer that places N
// independent recoverable combining shards behind one consistent-hash mixer
// and extends the paper's combining into two new dimensions.
//
// Hierarchical combining: instead of every thread announcing directly to its
// key's shard (and paying one announce handshake plus one chance at becoming
// combiner per op), a thread posts its request on the shard's volatile posting
// board and then tries to become the board's sweeper — one try-lock word.
// Whoever wins claims every posted request, its own among them, and announces
// them to the shard as a single *delegated* vector (core.CombOpts.Delegate);
// the others wait for their slot to be served. This is the paper's combiner —
// announce, try to take the role, serve everyone announced — one level up, not
// a server thread: the fabric starts no goroutine, and a batch forms the way
// the paper's does, out of the posts that land while the previous sweeper is
// inside its psync. The per-shard persistence cost — record copy, pwb, pfence,
// psync — then amortizes over the whole swept batch even when each client
// thread is only mildly concurrent with the others, which is exactly the
// regime where flat per-shard combining degrades to degree 1. Responses and
// deactivate bits are credited to the originating threads, so every operation
// remains detectably recoverable through the ordinary per-thread Recover path;
// the board itself is volatile and needs no recovery.
//
// Cross-shard transactions: multi-key operations (TransferAdd, PutAll, or any
// Txn leg list) are one commit of the fabric's system area, the same record a
// map's flush window uses: the legs, grouped by shard, and each group's
// sequence number are recorded before the record's one-word commit point, and
// after it each group is applied as a vectorized announcement on its shard.
// Recovery replays every group — the per-leg deactivate parities make replay
// idempotent — or finds nothing if the crash hit before the commit point, so
// a transaction is failure-atomic across shards. It is not isolated: see Txn.
package fabric

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/prim"
	"pcomb/internal/sysarea"
)

// Re-exported map operation codes and sentinels (the fabric's shards run the
// hashmap's open-addressing table object).
const (
	OpPut = hashmap.OpPut
	OpGet = hashmap.OpGet
	OpDel = hashmap.OpDel
	OpAdd = hashmap.OpAdd

	NotFound = hashmap.NotFound
	Full     = hashmap.Full
)

// Kind selects the underlying combining protocol of every shard.
type Kind int

const (
	// Blocking shards on PBcomb.
	Blocking Kind = iota
	// WaitFree shards on PWFcomb.
	WaitFree
)

// Options configures a fabric map.
type Options struct {
	// Shards is the number of independent combining shards (0 = 4).
	Shards int
	// Capacity is the total slot count across shards (0 = 64 per shard).
	Capacity int
	// Kind selects the shard protocol (default Blocking).
	Kind Kind
	// VecCap bounds one board sweep / one transaction shard group
	// (0 = 16, min 2). Part of the persistent layout — re-open with the
	// same value.
	VecCap int
	// Flat disables hierarchical combining: no posting boards, threads
	// invoke their key's shard directly. This is the naive-split baseline
	// the hierarchical mode is measured against.
	Flat bool
	// MaxLegs bounds a transaction's leg count (0 = 8, capped at VecCap, at
	// least 2). Part of the persistent layout.
	MaxLegs int
	// Epoch switches all shards to epoch-mode relaxed durability (one shared
	// epoch; a crash may lose the last open epoch's operations). The
	// cross-shard transaction recovery guarantee is specified for strict
	// mode; in epoch mode a transaction is failure-atomic only once its epoch
	// has durably closed.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode).
	EpochInterval time.Duration
}

// Board slot states for hierarchical combining.
const (
	slotEmpty uint32 = iota
	slotPosted
	slotClaimed
	slotDone
)

// selfServeSpins is how long a poster waits to be served before reclaiming
// its slot and invoking the shard itself: it bounds a poster's wait when the
// thread holding the sweeper role is preempted.
const selfServeSpins = 1 << 14

// bslot is one posting-board entry, padded to its own cache line. The owner
// thread writes the request fields and then status (atomic store = release);
// the sweeper's status load acquires them. ret flows back the same way.
type bslot struct {
	op, a0, a1, seq uint64
	ret             uint64
	status          atomic.Uint32
	_               [20]byte
}

// board is one shard's posting board: a slot per client thread and the
// sweeper role, a try-lock a poster takes to serve everything posted. The
// shard instances are built one thread wider than the fabric, and whoever
// holds the role announces under that extra tid (ctid = n); seq is ctid's
// announcement sequence number.
type board struct {
	slots   []bslot
	sweeper prim.PaddedInt32
	// Owned by the thread holding the role.
	seq  uint64
	dops []core.DelOp
	rets []uint64
}

// Map is a sharded recoverable hash map with hierarchical combining and
// failure-atomic cross-shard transactions.
type Map struct {
	h    *pmem.Heap
	name string

	n     int // client threads; shard instances are built for n+1 (tid n = the board's sweeper)
	nsh   int
	slots int
	vcap  int
	flat  bool

	shards []core.DelegateProtocol

	// sys is the fabric's system area: one sequence-counter class per shard,
	// and the record every operation and transaction commits through.
	sys *sysarea.Area

	boards []board

	epoch *pmem.Epoch
}

// New creates (or re-opens after a crash) a fabric map for n client threads.
// Re-open with the same options; call Recover for every thread before new
// operations, and Close before discarding the instance.
func New(h *pmem.Heap, name string, n int, o Options) *Map {
	nsh := o.Shards
	if nsh <= 0 {
		nsh = 4
	}
	capacity := o.Capacity
	if capacity < nsh {
		capacity = nsh * 64
	}
	vcap := o.VecCap
	if vcap <= 0 {
		vcap = 16
	}
	if vcap < 2 {
		vcap = 2
	}
	maxLegs := o.MaxLegs
	if maxLegs <= 0 {
		maxLegs = 8
	}
	maxLegs = max(min(maxLegs, vcap), 2)
	m := &Map{
		h:     h,
		name:  name,
		n:     n,
		nsh:   nsh,
		slots: (capacity + nsh - 1) / nsh,
		vcap:  vcap,
		flat:  o.Flat,
	}

	obj := hashmap.NewShardObject(m.slots)
	co := core.CombOpts{Sparse: true, VecCap: vcap, Delegate: true}
	for s := 0; s < nsh; s++ {
		sname := fmt.Sprintf("%s/fshard%d", name, s)
		var inst core.DelegateProtocol
		if o.Kind == WaitFree {
			inst = core.NewPWFCombWith(h, sname, n+1, obj, co)
		} else {
			inst = core.NewPBCombWith(h, sname, n+1, obj, co)
		}
		m.shards = append(m.shards, inst)
	}
	if o.Epoch {
		m.epoch = pmem.NewEpoch(h, name, pmem.EpochOpts{Interval: o.EpochInterval})
		for _, sh := range m.shards {
			sh.(core.EpochCapable).AttachEpoch(m.epoch)
		}
	}
	protos := make([]core.Protocol, nsh)
	for s, sh := range m.shards {
		protos[s] = sh
	}
	// A transaction is a commit of up to maxLegs operations.
	m.sys = sysarea.New(h, name+"/fabric.sys", n, protos, m.epoch, maxLegs)
	if !m.flat {
		m.boards = make([]board, nsh)
		for s := range m.boards {
			m.boards[s] = board{
				slots: make([]bslot, n),
				// ctid's announcement parity chain must survive re-open: seed
				// from the durable deactivate bit so the first sweep flips it.
				seq:  m.shards[s].(core.EpochCapable).DeactParity(n),
				dops: make([]core.DelOp, 0, vcap),
				rets: make([]uint64, vcap),
			}
		}
	}
	return m
}

// Close stops the epoch's background closer (strict mode has nothing to stop:
// the fabric starts no goroutine). Idempotent; call while quiescent.
func (m *Map) Close() {
	if m.epoch != nil {
		m.epoch.Stop()
	}
}

// Shards returns the shard count.
func (m *Map) Shards() int { return m.nsh }

func (m *Map) shardOf(key uint64) int {
	return int(prim.Mix(key) >> 33 % uint64(m.nsh))
}

// ShardOf returns the shard index serving key.
func (m *Map) ShardOf(key uint64) int { return m.shardOf(key) }

// SetHistory installs (or removes, with nil) a durable-linearizability
// history recorder. Install while quiescent.
func (m *Map) SetHistory(h sysarea.Log) { m.sys.SetHistory(h) }

// tidClamp adapts an external per-thread stats sink sized for the n client
// threads to the fabric's extra sweeper tid (ctid = n, whoever holds a board's
// role): its events are credited to the last client stripe. Only exported
// aggregates are consumed from these sinks, so the re-attribution is
// invisible.
type tidClamp struct {
	t   core.CombTracker
	max int
}

func (c tidClamp) tid(t int) int {
	if t > c.max {
		return c.max
	}
	return t
}
func (c tidClamp) Round(tid, degree int) { c.t.Round(c.tid(tid), degree) }
func (c tidClamp) Helped(tid int)        { c.t.Helped(c.tid(tid)) }
func (c tidClamp) LockFail(tid int)      { c.t.LockFail(c.tid(tid)) }
func (c tidClamp) SCFail(tid int)        { c.t.SCFail(c.tid(tid)) }
func (c tidClamp) Copied(tid, words int) { c.t.Copied(c.tid(tid), words) }
func (c tidClamp) BatchSize(tid, sz int) { c.t.BatchSize(c.tid(tid), sz) }

// shardProbe adapts a probe sized for the n client threads to the shard
// instances, which are built for n+1: the sweeper tid's events are clamped
// into the last client stripe of p.Comb. Hierarchical mode records no spans at
// the shard level: there a sweeping client drives the shard as tid n, which
// has no track in a log sized for the client threads — the harness's whole-op
// spans still cover the client side.
func (m *Map) shardProbe(p core.Probe) core.Probe {
	if p.Comb != nil {
		p.Comb = tidClamp{t: p.Comb, max: m.n - 1}
	}
	if !m.flat {
		p.Spans = nil
	}
	return p
}

// SetProbe installs p on every shard: one shared set of sinks, so p.Comb reads
// the fabric-level aggregate (use ShardStats for a per-shard view). The sinks
// may be sized for the client thread count.
func (m *Map) SetProbe(p core.Probe) {
	p = m.shardProbe(p)
	for _, sh := range m.shards {
		sh.SetProbe(p)
	}
}

// combTee fans shard events out to the per-shard group child and the
// fabric-level parent sink.
type combTee struct{ a, b core.CombTracker }

func (t combTee) Round(tid, degree int) { t.a.Round(tid, degree); t.b.Round(tid, degree) }
func (t combTee) Helped(tid int)        { t.a.Helped(tid); t.b.Helped(tid) }
func (t combTee) LockFail(tid int)      { t.a.LockFail(tid); t.b.LockFail(tid) }
func (t combTee) SCFail(tid int)        { t.a.SCFail(tid); t.b.SCFail(tid) }
func (t combTee) Copied(tid, words int) { t.a.Copied(tid, words); t.b.Copied(tid, words) }
func (t combTee) BatchSize(tid, sz int) { t.a.BatchSize(tid, sz); t.b.BatchSize(tid, sz) }

// ShardStats is SetProbe with a per-shard view on top: it builds an
// obs.CombGroup with one child sink per shard, and shard i's combining events
// reach child i as well as p.Comb (if any) — per-shard combining degree stays
// observable while the group's Snapshot reads the merged aggregate.
func (m *Map) ShardStats(p core.Probe) *obs.CombGroup {
	g := obs.NewCombGroup(m.nsh, m.n+1)
	p = m.shardProbe(p)
	for i, sh := range m.shards {
		q := p
		q.Comb = g.Child(i)
		if p.Comb != nil {
			q.Comb = combTee{a: g.Child(i), b: p.Comb}
		}
		sh.SetProbe(q)
	}
	return g
}

// Epoch returns the shared epoch state (nil in strict mode).
func (m *Map) Epoch() *pmem.Epoch { return m.epoch }

// Sync forces an epoch close (no-op in strict mode).
func (m *Map) Sync() {
	if m.epoch != nil {
		m.epoch.CloseNow()
	}
}

// invoke records the op durably, routes it, and marks it done.
func (m *Map) invoke(tid int, op, key, val uint64) uint64 {
	sh := m.shardOf(key)
	seq := m.sys.Begin(tid, sh, op, key, val)
	ret := m.perform(tid, sh, op, key, val, seq)
	m.sys.End(tid, ret)
	return ret
}

// perform runs one durably recorded operation: in flat mode by invoking the
// shard directly; in hierarchical mode by posting to the shard's board and
// then, until the slot is served, trying to become the board's sweeper
// (self-serving after a bounded wait).
func (m *Map) perform(tid, sh int, op, key, val, seq uint64) uint64 {
	if m.flat {
		return m.shards[sh].Invoke(tid, op, key, val, seq)
	}
	b := &m.boards[sh]
	s := &b.slots[tid]
	s.op, s.a0, s.a1, s.seq = op, key, val, seq
	s.status.Store(slotPosted)
	spins := 0
	for {
		switch s.status.Load() {
		case slotDone:
			ret := s.ret
			s.status.Store(slotEmpty)
			return ret
		case slotPosted:
			if b.sweeper.V.Load() == 0 && b.sweeper.V.CompareAndSwap(0, 1) {
				// A CrashError unwinding the sweep leaves the role held. That
				// is correct: the boards are volatile and New rebuilds them,
				// and until then every waiter sees h.Crashed() and unwinds.
				m.sweep(sh, b, tid)
				b.sweeper.V.Store(0)
				continue
			}
			if spins > selfServeSpins && s.status.CompareAndSwap(slotPosted, slotEmpty) {
				return m.shards[sh].Invoke(tid, op, key, val, seq)
			}
		}
		spins++
		if spins&63 == 0 {
			if m.h.Crashed() {
				// Whoever held this slot or the role has unwound; unwind like
				// any worker so the crash harness can finish the crash and
				// re-open.
				panic(pmem.CrashError{})
			}
			runtime.Gosched()
		} else {
			prim.Pause()
		}
	}
}

// sweep serves board b as shard sh's combiner: the caller, thread tid, holds
// the sweeper role. It claims every posted slot (up to VecCap, scanning from
// its own so that one is among them), announces them as one delegated vector
// under ctid, and hands each response back. There is no linger: the posts
// that landed while the previous sweeper was inside its psync are the batch.
func (m *Map) sweep(sh int, b *board, tid int) {
	dops := b.dops
	q := tid
	for range b.slots {
		s := &b.slots[q]
		if s.status.Load() == slotPosted && s.status.CompareAndSwap(slotPosted, slotClaimed) {
			dops = append(dops, core.DelOp{Op: s.op, A0: s.a0, A1: s.a1, Tid: q, Seq: s.seq})
			if len(dops) == m.vcap {
				break
			}
		}
		if q++; q == len(b.slots) {
			q = 0
		}
	}
	if len(dops) == 0 {
		return // a previous sweeper served this thread on its way out
	}
	rets := b.rets[:len(dops)]
	b.seq++
	m.shards[sh].InvokeDelegated(m.n, b.seq, dops, rets)
	for i := range dops {
		s := &b.slots[dops[i].Tid]
		s.ret = rets[i]
		s.status.Store(slotDone)
	}
}

// Put maps key to val, returning the previous value and whether one existed
// (prev==Full with ok=false reports a full shard).
func (m *Map) Put(tid int, key, val uint64) (prev uint64, existed bool) {
	r := m.invoke(tid, OpPut, key, val)
	if r == NotFound || r == Full {
		return r, false
	}
	return r, true
}

// Get returns the value mapped to key: a validated read of the shard's last
// durable record (core's Read), in flat and hierarchical mode alike — the
// posting board is for requests that need a round, and a read needs none. It
// announces nothing, writes no system-area record, issues no persistence
// instruction, sees every operation that returned before it was called and
// never returns state a crash could roll back (under Options.Epoch it sees the
// newest state, within the epoch's loss window). OpGet legs of a Txn run inside
// their group's round as before.
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

// Add adds delta (two's complement) to key's value, inserting delta for an
// absent key, and returns the new value.
func (m *Map) Add(tid int, key, delta uint64) uint64 {
	return m.invoke(tid, OpAdd, key, delta)
}

// Recover resolves what thread tid had in flight at the crash — exactly
// once — and repairs tid's sequence counters (sysarea.Area.Recover): an
// interrupted scalar operation is re-run or fetched, a committed cross-shard
// transaction is replayed and reported as its legs, in durable (group) order.
// A transaction the crash hit before its commit point is discarded wholesale
// and reports nothing. Call for every tid in [0, n) after re-opening.
func (m *Map) Recover(tid int) []sysarea.Resolved { return m.sys.Recover(tid) }

// Len returns the number of live keys: each shard's count is a validated read
// of its last durable record, safe beside running operations; the sum is not
// a snapshot across shards.
func (m *Map) Len() int {
	total := 0
	for _, sh := range m.shards {
		total += int(sh.Peek(hashmap.OpLen, 0, 0))
	}
	return total
}

// Range calls f for every key/value pair. Quiescent use only.
func (m *Map) Range(f func(key, val uint64) bool) {
	for _, sh := range m.shards {
		st := sh.CurrentState()
		for i := 0; i < m.slots; i++ {
			k := st.Load(1 + 2*i)
			if k == 0 || k == hashmap.Tombstone {
				continue
			}
			if !f(k, st.Load(1+2*i+1)) {
				return
			}
		}
	}
}

// SumValues returns the sum (mod 2^64) of all values — the conservation
// invariant TransferAdd preserves. Quiescent use only.
func (m *Map) SumValues() uint64 {
	var sum uint64
	m.Range(func(_, v uint64) bool { sum += v; return true })
	return sum
}
