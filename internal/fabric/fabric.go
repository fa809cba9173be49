// Package fabric is a sharded combining fabric: a router layer that places N
// independent recoverable combining shards behind one consistent-hash mixer
// and extends the paper's combining into two new dimensions.
//
// Hierarchical combining: instead of every thread announcing directly to its
// key's shard (and paying one announce handshake plus one chance at becoming
// combiner per op), each shard owns a dedicated combiner goroutine that
// sweeps a volatile posting board and batches many threads' requests into a
// single *delegated* vectorized announcement (core.CombOpts.Delegate). The
// per-shard persistence cost — record copy, pwb, pfence, psync — then
// amortizes over the whole swept batch even when each client thread is only
// mildly concurrent with the others, which is exactly the regime where flat
// per-shard combining degrades to degree 1. Responses and deactivate bits are
// credited to the originating threads, so every operation remains detectably
// recoverable through the ordinary per-thread Recover path; the board itself
// is volatile and needs no recovery.
//
// Cross-shard transactions: multi-key operations (TransferAdd, PutAll, or any
// Txn leg list) group their legs by shard and run as a two-phase commit
// anchored on a per-thread durable transaction record. Prepare writes the
// legs, the participant groups, and each group's sequence number; the commit
// point is one word (the marked group count); after it, each group is applied
// as a vectorized announcement on its shard. Recovery replays every group —
// the per-leg deactivate parities make replay idempotent — or discards the
// whole transaction if the crash hit before the commit word, so the
// transaction is atomic across shards.
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
	// VecCap bounds one combiner sweep / one transaction shard group
	// (0 = 16, min 2). Part of the persistent layout — re-open with the
	// same value.
	VecCap int
	// Flat disables hierarchical combining: no per-shard combiner
	// goroutines, threads invoke their key's shard directly. This is the
	// naive-split baseline the hierarchical mode is measured against.
	Flat bool
	// MaxLegs bounds a transaction's leg count (0 = 8, capped at VecCap).
	// Part of the persistent layout.
	MaxLegs int
	// Epoch switches all shards to epoch-mode relaxed durability (one shared
	// epoch; a crash may lose the last open epoch's operations). The
	// cross-shard transaction recovery guarantee is specified for strict
	// mode; in epoch mode a transaction is atomic only once its epoch has
	// durably closed.
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

// selfServeSpins is how long a poster waits for a combiner pickup before
// reclaiming its slot and invoking the shard itself (keeps flat-combining
// liveness when a shard's combiner is starved or its board is cold).
const selfServeSpins = 1 << 14

// combinerLinger bounds the yield-and-regather loop a combiner runs before
// announcing a partially filled vector.
const combinerLinger = 4

// bslot is one posting-board entry, padded to its own cache line. The owner
// thread writes the request fields and then status (atomic store = release);
// the combiner's status load acquires them. ret flows back the same way.
type bslot struct {
	op, a0, a1, seq uint64
	ret             uint64
	status          atomic.Uint32
	_               [20]byte
}

type board struct {
	slots []bslot
	// parked/wake let an idle combiner block instead of burning a core:
	// posters ring wake only when the combiner has declared itself parked,
	// so the post fast path stays one load + (rarely) one non-blocking send.
	parked atomic.Bool
	wake   chan struct{}
}

// Map is a sharded recoverable hash map with hierarchical combining and
// cross-shard atomic transactions.
type Map struct {
	h    *pmem.Heap
	name string

	n       int // client threads; shard instances are built for n+1 (tid n = combiner)
	nsh     int
	slots   int
	vcap    int
	maxLegs int
	maxGrps int
	flat    bool

	shards []core.DelegateProtocol

	// sys is the fabric's system area (one sequence-counter class per shard);
	// txn is the per-thread transaction redo log beside it (txn.go).
	sys      *sysarea.Area
	txn      *pmem.Region
	txStride int
	legOff   int // legs offset within a thread's txn record

	boards []*board
	combs  []*combiner

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
	if maxLegs > vcap {
		maxLegs = vcap
	}
	m := &Map{
		h:       h,
		name:    name,
		n:       n,
		nsh:     nsh,
		slots:   (capacity + nsh - 1) / nsh,
		vcap:    vcap,
		maxLegs: maxLegs,
		flat:    o.Flat,
	}
	m.maxGrps = nsh
	if m.maxGrps > maxLegs {
		m.maxGrps = maxLegs
	}
	m.legOff = txHdrWords + 3*m.maxGrps
	// Whole cache lines per thread, so neighbours' logs never share one.
	m.txStride = pmem.RoundUpLine(m.legOff + 3*m.maxLegs)
	m.txn = h.AllocOrGet(name+"/fabric.txn", n*m.txStride)

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
	m.sys = sysarea.New(h, name+"/fabric.sys", n, protos, m.epoch)
	if !m.flat {
		m.boards = make([]*board, nsh)
		m.combs = make([]*combiner, nsh)
		for s := 0; s < nsh; s++ {
			m.boards[s] = &board{slots: make([]bslot, n), wake: make(chan struct{}, 1)}
			c := &combiner{m: m, sh: s, done: make(chan struct{})}
			m.combs[s] = c
			go c.run()
		}
	}
	return m
}

// Close stops the per-shard combiner goroutines (no-op in flat mode). Call
// while quiescent — no client thread may be inside an operation.
func (m *Map) Close() {
	for _, c := range m.combs {
		c.stop.Store(true)
	}
	for _, c := range m.combs {
		<-c.done
	}
	m.combs = nil
	if m.epoch != nil {
		m.epoch.Stop()
	}
}

// combiner is one shard's dedicated sweeping goroutine: it claims posted
// requests and announces them as a single delegated vector, so the shard's
// whole persistence cost amortizes over the swept batch.
type combiner struct {
	m    *Map
	sh   int
	stop atomic.Bool
	done chan struct{}
}

// hasPosted reports whether any slot is currently posted (park race check).
func (b *board) hasPosted() bool {
	for q := range b.slots {
		if b.slots[q].status.Load() == slotPosted {
			return true
		}
	}
	return false
}

func (c *combiner) run() {
	defer close(c.done)
	defer func() {
		// A simulated crash unwinds the combiner like any worker; posters
		// observe h.Crashed() and unwind too. Fresh goroutines start when
		// the fabric is re-opened after recovery.
		if r := recover(); r != nil {
			if _, ok := r.(pmem.CrashError); !ok {
				panic(r)
			}
		}
	}()
	m, sh := c.m, c.sh
	inst := m.shards[sh]
	ctid := m.n
	// The combiner's own announcement parity chain must survive re-open:
	// seed from the durable deactivate bit so the first announcement flips it.
	seq := inst.(core.EpochCapable).DeactParity(ctid)
	b := m.boards[sh]
	dops := make([]core.DelOp, 0, m.vcap)
	idxs := make([]int, 0, m.vcap)
	rets := make([]uint64, m.vcap)
	idle := 0
	for {
		if c.stop.Load() || m.h.Crashed() {
			return
		}
		dops, idxs = dops[:0], idxs[:0]
		claim := func() {
			for q := 0; q < len(b.slots) && len(dops) < m.vcap; q++ {
				s := &b.slots[q]
				if s.status.Load() == slotPosted && s.status.CompareAndSwap(slotPosted, slotClaimed) {
					dops = append(dops, core.DelOp{Op: s.op, A0: s.a0, A1: s.a1, Tid: q, Seq: s.seq})
					idxs = append(idxs, q)
				}
			}
		}
		claim()
		// Linger: a round's persistence cost amortizes over its batch, so a
		// short yield to let late posters land beats announcing a thin
		// vector — the whole hierarchical-combining bet. Bounded so a lone
		// client on an idle shard is not held hostage.
		for linger := 0; linger < combinerLinger && len(dops) > 0 && len(dops) < m.vcap; linger++ {
			runtime.Gosched()
			claim()
		}
		if len(dops) == 0 {
			if idle++; idle > 256 {
				// Park: declare it, re-check for a post that raced the
				// declaration, then block until a poster rings (or a timeout
				// re-checks stop/crash so shutdown can't hang on a lost wake).
				b.parked.Store(true)
				if !b.hasPosted() {
					select {
					case <-b.wake:
					case <-time.After(100 * time.Microsecond):
					}
				}
				b.parked.Store(false)
			} else if idle > 64 {
				runtime.Gosched()
			} else {
				prim.Pause()
			}
			continue
		}
		idle = 0
		seq++
		inst.InvokeDelegated(ctid, seq, dops, rets[:len(dops)])
		for i, q := range idxs {
			s := &b.slots[q]
			s.ret = rets[i]
			s.status.Store(slotDone)
		}
	}
}

// Shards returns the shard count.
func (m *Map) Shards() int { return m.nsh }

// Hierarchical reports whether per-shard combiner goroutines are running.
func (m *Map) Hierarchical() bool { return !m.flat }

func (m *Map) shardOf(key uint64) int {
	return int(prim.Mix(key) >> 33 % uint64(m.nsh))
}

// ShardOf returns the shard index serving key.
func (m *Map) ShardOf(key uint64) int { return m.shardOf(key) }

// SetHistory installs (or removes, with nil) a durable-linearizability
// history recorder. Install while quiescent.
func (m *Map) SetHistory(h sysarea.Log) { m.sys.SetHistory(h) }

// tidClamp adapts an external per-thread stats sink sized for the n client
// threads to the fabric's extra combiner tid (ctid = n): the service
// thread's events are credited to the last client stripe. Only exported
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
// instances, which are built for n+1: combiner-thread events are clamped into
// the last client stripe of p.Comb. Hierarchical mode records no spans at the
// shard level: there the shards are driven by the combiner thread (tid n),
// which has no track in a log sized for the client threads — the harness's
// whole-op spans still cover the client side.
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
// waiting for its combiner (self-serving after a bounded wait).
func (m *Map) perform(tid, sh int, op, key, val, seq uint64) uint64 {
	if m.flat {
		return m.shards[sh].Invoke(tid, op, key, val, seq)
	}
	b := m.boards[sh]
	s := &b.slots[tid]
	s.op, s.a0, s.a1, s.seq = op, key, val, seq
	s.status.Store(slotPosted)
	if b.parked.Load() {
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
	spins := 0
	for {
		switch s.status.Load() {
		case slotDone:
			ret := s.ret
			s.status.Store(slotEmpty)
			return ret
		case slotPosted:
			if spins > selfServeSpins && s.status.CompareAndSwap(slotPosted, slotEmpty) {
				return m.shards[sh].Invoke(tid, op, key, val, seq)
			}
		}
		spins++
		if spins&63 == 0 {
			if m.h.Crashed() {
				// The combiner goroutine unwound; unwind like any worker so
				// the crash harness can finish the crash and re-open.
				panic(pmem.CrashError{})
			}
			runtime.Gosched()
		} else {
			prim.Pause()
		}
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

// Get returns the value mapped to key.
func (m *Map) Get(tid int, key uint64) (uint64, bool) {
	r := m.invoke(tid, OpGet, key, 0)
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
// once — and repairs tid's sequence counters: a committed cross-shard
// transaction is replayed and reported as its legs, in durable (group) order;
// otherwise the interrupted scalar operation, if any, is re-run or fetched
// (sysarea.Area.Recover). A transaction the crash hit before its commit word
// is discarded wholesale and reports nothing. Call for every tid in [0, n)
// after re-opening.
func (m *Map) Recover(tid int) []sysarea.Resolved {
	if legs, ok := m.recoverTxn(tid); ok {
		return m.sys.Recorded(tid, legs)
	}
	return m.sys.Recover(tid)
}

// Len returns the number of live keys. Quiescent use only.
func (m *Map) Len() int {
	total := 0
	for _, sh := range m.shards {
		total += int(sh.CurrentState().Load(0))
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
