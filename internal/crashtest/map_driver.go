package crashtest

import (
	"fmt"
	"math/rand"

	"pcomb/internal/hashmap"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
)

// mapCapacity sizes the fuzzed map so a combining round copies a few KB of
// shard state, not the whole table. The harness draws keys from a 64-key
// window per thread, so 128 slots per shard is ample; the previous fixed
// 1<<16 capacity made every combining round copy a 16385-word shard state
// (~131KB), throttling map campaigns to a few operations per round.
func mapCapacity(shards int) int { return shards * 128 }

// mapDriver targets the sharded recoverable hash map: after every crash
// round and recovery, the map must agree with an oracle reconstructed from
// the per-thread operation logs plus the recovery results. Keys are
// disjoint per thread, so each thread's last committed write to a key is
// the oracle value — no cross-thread ordering ambiguity.
//
// With opts.VecCap > 1 the driver exercises the async Submit/Flush path:
// each step stages one vector of shard-homogeneous operations (all keys of
// one flush hash to the same shard, so a flush is exactly one sub-batch and
// a crash resolves unambiguously through one Recover).
type mapDriver struct {
	durlin
	kind hashmap.Kind
	opts hashmap.Options
	n    int
	seed int64

	m *hashmap.Map

	oracle map[uint64]uint64
	// Epoch mode replaces the exact oracle (unsound once completed ops may
	// vanish) with the set of values ever written per key: any durably live
	// value must be one of them. putVals is campaign-lifetime.
	putVals map[uint64]map[uint64]bool

	// Epoch mode: durably closed epoch at the FIRST post-crash reopen of the
	// round (recovery closes advance the stamp past lost epochs).
	crashStamp uint64
	stampSet   bool

	round         int
	initVals      map[uint64]uint64
	committed     [][]mapRec
	pendOp        []mapRec
	pendActive    []bool
	pendVecOps    [][]mapRec
	pendVecActive []bool
	shardKeys     [][][]uint64 // vec mode: per-tid key candidates bucketed by shard
	shardsUsable  [][]int      // vec mode: per-tid shard indices with a non-empty bucket
	tRngs         []*rand.Rand
	resolved      []bool
	folded        bool
	recovered     int
}

type mapRec struct {
	op, key, val uint64
}

// NewMapDriver builds a hash-map target for n threads.
func NewMapDriver(kind hashmap.Kind, shards, n int, seed int64) Driver {
	return NewMapDriverWith(kind, hashmap.Options{Shards: shards, Capacity: mapCapacity(shards)}, n, seed)
}

// NewMapDriverWith is NewMapDriver with explicit map options (dense
// persistence, async vector capacity). A zero Capacity picks the harness
// default for the shard count.
func NewMapDriverWith(kind hashmap.Kind, opts hashmap.Options, n int, seed int64) Driver {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.Capacity <= 0 {
		opts.Capacity = mapCapacity(opts.Shards)
	}
	return &mapDriver{
		kind: kind, opts: opts, n: n, seed: seed,
		oracle:  map[uint64]uint64{},
		putVals: map[uint64]map[uint64]bool{},
	}
}

func (d *mapDriver) vec() bool { return d.opts.VecCap > 1 }

func (d *mapDriver) Name() string {
	base := "map/PBmap"
	if d.kind == hashmap.WaitFree {
		base = "map/PWFmap"
	}
	if d.opts.Dense {
		base += "-dense"
	}
	if d.vec() {
		base += "-vec"
	}
	if d.opts.Epoch {
		base += "-epoch"
	}
	return base
}

func (d *mapDriver) Open(h *pmem.Heap) {
	d.m = hashmap.NewWith(h, "fm", d.n, d.kind, d.opts)
	d.m.SetHistory(d.rec)
	if d.opts.Epoch && !d.stampSet {
		d.crashStamp = d.m.EpochClosed()
		d.stampSet = true
	}
	d.durCut()
}

func (d *mapDriver) BeginRound(round int) {
	d.round = round
	d.m.SetHistory(d.durBegin(d.n))
	d.initVals = map[uint64]uint64{}
	d.m.Range(func(k, v uint64) bool {
		d.initVals[k] = v
		return true
	})
	d.committed = make([][]mapRec, d.n)
	d.pendOp = make([]mapRec, d.n)
	d.pendActive = make([]bool, d.n)
	d.pendVecOps = make([][]mapRec, d.n)
	d.pendVecActive = make([]bool, d.n)
	if d.vec() {
		d.shardKeys = make([][][]uint64, d.n)
		d.shardsUsable = make([][]int, d.n)
		for tid := 0; tid < d.n; tid++ {
			buckets := make([][]uint64, d.m.Shards())
			for k := 0; k < 64; k++ {
				key := uint64(tid)<<32 | uint64(k) + 1
				sh := d.m.ShardOf(key)
				buckets[sh] = append(buckets[sh], key)
			}
			d.shardKeys[tid] = buckets
			for sh, b := range buckets {
				if len(b) > 0 {
					d.shardsUsable[tid] = append(d.shardsUsable[tid], sh)
				}
			}
		}
	}
	d.tRngs = make([]*rand.Rand, d.n)
	for i := range d.tRngs {
		d.tRngs[i] = rand.New(rand.NewSource(d.seed*11000 + int64(round*d.n+i)))
	}
	d.resolved = make([]bool, d.n)
	d.folded = false
	d.recovered = 0
	d.stampSet = false
}

func (d *mapDriver) Step(tid, i int) {
	if d.vec() {
		d.stepVec(tid, i)
		return
	}
	r := d.tRngs[tid]
	if d.opts.Epoch && r.Intn(6) == 0 {
		// Close epochs from worker threads so crash points land inside the
		// close pass itself, not just between operations.
		d.m.Sync()
	}
	key := uint64(tid)<<32 | uint64(r.Intn(64)) + 1
	switch r.Intn(3) {
	case 0:
		val := uint64(d.round+1)<<40 | uint64(i) + 1
		d.pendOp[tid] = mapRec{hashmap.OpPut, key, val}
		d.pendActive[tid] = true
		d.m.Put(tid, key, val)
		d.committed[tid] = append(d.committed[tid], mapRec{hashmap.OpPut, key, val})
	case 1:
		d.pendOp[tid] = mapRec{hashmap.OpDel, key, 0}
		d.pendActive[tid] = true
		d.m.Delete(tid, key)
		d.committed[tid] = append(d.committed[tid], mapRec{hashmap.OpDel, key, 0})
	default:
		d.pendOp[tid] = mapRec{hashmap.OpGet, key, 0}
		d.pendActive[tid] = true
		d.m.Get(tid, key)
		d.committed[tid] = append(d.committed[tid], mapRec{hashmap.OpGet, key, 0})
	}
	d.pendActive[tid] = false
}

// stepVec stages one shard-homogeneous vector through Submit/Flush. The map
// wrapper itself records the flush's history (Begin per op before the group
// publishes, End after it commits), so a crash leaves exactly the durably
// recorded group pending and later-staged ops unrecorded (lost wholesale per
// the async contract).
func (d *mapDriver) stepVec(tid, i int) {
	r := d.tRngs[tid]
	usable := d.shardsUsable[tid]
	bucket := d.shardKeys[tid][usable[r.Intn(len(usable))]]
	cnt := r.Intn(d.opts.VecCap) + 1
	recs := make([]mapRec, 0, cnt)
	for j := 0; j < cnt; j++ {
		key := bucket[r.Intn(len(bucket))]
		switch r.Intn(3) {
		case 0:
			val := uint64(d.round+1)<<40 | uint64(i+1)<<8 | uint64(j+1)
			recs = append(recs, mapRec{hashmap.OpPut, key, val})
		case 1:
			recs = append(recs, mapRec{hashmap.OpDel, key, 0})
		default:
			recs = append(recs, mapRec{hashmap.OpGet, key, 0})
		}
	}
	d.pendVecOps[tid] = recs
	d.pendVecActive[tid] = true
	for _, rec := range recs {
		switch rec.op {
		case hashmap.OpPut:
			d.m.SubmitPut(tid, rec.key, rec.val)
		case hashmap.OpDel:
			d.m.SubmitDelete(tid, rec.key)
		default:
			d.m.SubmitGet(tid, rec.key)
		}
	}
	d.m.Flush(tid)
	d.committed[tid] = append(d.committed[tid], recs...)
	d.pendVecActive[tid] = false
}

func (d *mapDriver) Recover() (int, error) {
	if d.opts.Epoch {
		return d.recoverEpoch()
	}
	if !d.folded {
		for tid := 0; tid < d.n; tid++ {
			for _, c := range d.committed[tid] {
				applyOracle(d.oracle, c.op, c.key, c.val)
			}
		}
		d.folded = true
	}
	for tid := 0; tid < d.n; tid++ {
		if d.resolved[tid] {
			continue
		}
		switch {
		case d.vec() && d.pendVecActive[tid]:
			recops := d.m.Recover(tid)
			d.resolved[tid] = true
			d.recovered++
			// The interrupted flush had durably recorded its (single,
			// shard-homogeneous) sub-batch; its effects are now applied
			// exactly once — fold them into the oracle in ring order.
			for _, ro := range recops {
				applyOracle(d.oracle, ro.Op, ro.A0, ro.A1)
			}
			// Nothing recovered: the crash hit before the sub-batch record was
			// durable; the staged ops are lost wholesale (and their history
			// entries, if any, stay pending — free to vanish under the
			// crash-cut checker).
		case !d.vec() && d.pendActive[tid]:
			rs := d.m.Recover(tid)
			d.resolved[tid] = true
			d.recovered++
			if len(rs) != 1 {
				return d.recovered, fmt.Errorf("in-flight op of tid %d: %d ops pending, want 1", tid, len(rs))
			}
			if rs[0].Op != d.pendOp[tid].op || rs[0].A0 != d.pendOp[tid].key {
				return d.recovered, fmt.Errorf("recovered wrong op (%d,%x) want (%d,%x)",
					rs[0].Op, rs[0].A0, d.pendOp[tid].op, d.pendOp[tid].key)
			}
			applyOracle(d.oracle, d.pendOp[tid].op, d.pendOp[tid].key, d.pendOp[tid].val)
		}
	}
	return d.recovered, nil
}

func (d *mapDriver) notePut(key, val uint64) {
	s := d.putVals[key]
	if s == nil {
		s = map[uint64]bool{}
		d.putVals[key] = s
	}
	s[val] = true
}

// recoverEpoch resolves the round under epoch-mode semantics via the map's
// own Recover: certain interruptions are re-performed and persisted
// before their record closes, ambiguous ones are closed untouched (their
// fate is the history checker's call), and every thread's per-shard sequence
// counters are realigned past parity collisions with the durable deactivate
// bits. The exact oracle is unsound here — completed operations of the last
// open epoch may vanish — so the driver only accumulates the write
// witnesses Check() and the epoch-aware CheckHistory() need.
func (d *mapDriver) recoverEpoch() (int, error) {
	if !d.folded {
		for tid := 0; tid < d.n; tid++ {
			for _, c := range d.committed[tid] {
				if c.op == hashmap.OpPut {
					d.notePut(c.key, c.val)
				}
			}
		}
		d.folded = true
	}
	for tid := 0; tid < d.n; tid++ {
		if d.resolved[tid] {
			continue
		}
		if !d.pendActive[tid] {
			// Nothing in flight, but trailing completions may have vanished:
			// Recover still realigns the thread's sequence counters.
			d.m.Recover(tid)
			d.resolved[tid] = true
			continue
		}
		rs := d.m.Recover(tid)
		d.resolved[tid] = true
		d.recovered++
		if len(rs) == 1 && rs[0].Certain {
			if rs[0].Op != d.pendOp[tid].op || rs[0].A0 != d.pendOp[tid].key {
				return d.recovered, fmt.Errorf("recovered wrong op (%d,%x) want (%d,%x)",
					rs[0].Op, rs[0].A0, d.pendOp[tid].op, d.pendOp[tid].key)
			}
		}
		// Whether re-performed, ambiguous, or completed-then-interrupted, an
		// in-flight put may have durably landed its value.
		if d.pendOp[tid].op == hashmap.OpPut {
			d.notePut(d.pendOp[tid].key, d.pendOp[tid].val)
		}
	}
	d.m.Sync()
	return d.recovered, nil
}

// checkEpoch verifies what conservation still means under a bounded loss
// window: every durably live value must be one some put actually wrote to
// that key. Exact last-writer agreement is the epoch-aware history checker's
// job.
func (d *mapDriver) checkEpoch() error {
	var bad error
	d.m.Range(func(k, v uint64) bool {
		if !d.putVals[k][v] {
			bad = fmt.Errorf("live value %x at key %x was never written", v, k)
			return false
		}
		return true
	})
	return bad
}

func (d *mapDriver) Check() error {
	if d.opts.Epoch {
		return d.checkEpoch()
	}
	// The oracle probes below are real combining Gets; they audit state, they
	// are not part of the workload. Detach the recorder so their responses
	// cannot attach to operations a crashed flush left pending (BeginRound
	// reinstalls the next round's recorder).
	d.m.SetHistory(nil)
	for key, want := range d.oracle {
		got, ok := d.m.Get(int(key>>32), key)
		if !ok || got != want {
			return fmt.Errorf("key %x = %d,%v want %d", key, got, ok, want)
		}
	}
	live := 0
	bad := false
	d.m.Range(func(k, v uint64) bool {
		live++
		if w, ok := d.oracle[k]; !ok || w != v {
			bad = true
			return false
		}
		return true
	})
	if bad || live != len(d.oracle) {
		return fmt.Errorf("map/oracle divergence (live=%d oracle=%d)", live, len(d.oracle))
	}
	return nil
}

// CheckHistory implements HistoryDriver: operations partition perfectly by
// key, each class closing with one audit get of the key's final durable
// value (absence = NotFound) over the per-key map model.
func (d *mapDriver) CheckHistory() (bool, error) {
	if d.rec == nil {
		return false, nil
	}
	if d.opts.Epoch && d.stampSet {
		d.rec.MarkVolatileAfter(d.crashStamp)
	}
	final := map[uint64]uint64{}
	d.m.Range(func(k, v uint64) bool {
		final[k] = v
		return true
	})
	touched := map[uint64]bool{}
	for _, op := range d.rec.Ops() {
		touched[op.Arg] = true
	}
	var audits []lin.Op
	for k := range touched {
		out := lin.EmptyOut
		if v, ok := final[k]; ok {
			out = v
		}
		audits = append(audits, lin.Op{Kind: lin.KindGet, Arg: k, Out: out})
	}
	return d.checkPartitioned(func(class uint64) lin.Model {
		init := lin.EmptyOut
		if v, ok := d.initVals[class]; ok {
			init = v
		}
		return lin.MapKeyModel{Initial: init}
	}, func(op lin.Op) uint64 { return op.Arg }, audits)
}

// FuzzMap crash-fuzzes the sharded recoverable hash map (compatibility
// wrapper over Fuzz).
func FuzzMap(kind hashmap.Kind, shards, n, opsPerThread, rounds int, seed int64) (Report, error) {
	rep, f := Fuzz(func(s int64) Driver { return NewMapDriver(kind, shards, n, s) },
		Config{Threads: n, Ops: opsPerThread, Rounds: rounds, Seed: seed})
	return rep, f.ErrOrNil()
}

func applyOracle(oracle map[uint64]uint64, op, key, val uint64) {
	switch op {
	case hashmap.OpPut:
		oracle[key] = val
	case hashmap.OpDel:
		delete(oracle, key)
	}
}
