package crashtest

import (
	"fmt"
	"math/rand"

	"pcomb/internal/fabric"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
)

const (
	// fabShards spreads the key windows across enough shards that transfer
	// legs routinely land on different shards (the two-phase path).
	fabShards = 4
	// fabKeys is the per-thread scalar key window; fabAccounts the per-thread
	// account window only ever touched by TransferAdd legs.
	fabKeys     = 16
	fabAccounts = 8
)

// fabAcctKey returns thread tid's j-th transfer account. Accounts live in a
// window disjoint from the scalar keys (and from other threads), so every
// account's balance is exactly the sum of the transfer deltas applied to it.
func fabAcctKey(tid, j int) uint64 {
	return uint64(tid)<<32 | 0x10000 | uint64(j)
}

// fabAmount draws a transfer amount that is a multiple of 4: account balances
// random-walk on multiples of 4 (mod 2^64) and can therefore never collide
// with the NotFound (== 3 mod 4) or Full (== 2 mod 4) sentinels.
func fabAmount(r *rand.Rand) uint64 { return uint64(4 * (1 + r.Intn(4))) }

// fabricDriver targets the sharded combining fabric under the simulated-crash
// engines: scalar operations on per-thread disjoint keys plus cross-shard
// atomic transactions (TransferAdd between two of the thread's accounts,
// PutAll over several of its scalar keys). After every crash and recovery the
// fabric must agree with a per-key oracle, the transfer accounts must
// conserve their sum, and the recorded history must pass the per-key
// durable-linearizability crash-cut check.
//
// The driver runs the fabric in flat routing mode: the hierarchical mode's
// per-shard combiner goroutines have no quiescence hook between the engine's
// TriggerCrash and FinishCrash (a laggard combiner could claim a dead
// worker's posted slot and apply it to the restored heap before recovery).
// The cross-shard transaction path is identical in both modes — Txn invokes
// the shards directly — and the hierarchical path is covered by the
// process-kill campaign, where SIGKILL needs no unwinding.
type fabricDriver struct {
	durlin
	kind fabric.Kind
	n    int
	seed int64

	m *fabric.Map

	oracle map[uint64]uint64

	round      int
	initVals   map[uint64]uint64
	committed  [][]fabRec
	pendOp     []fabRec
	pendActive []bool
	pendTxn    [][]fabric.Leg
	pendTxnOn  []bool
	tRngs      []*rand.Rand
	resolved   []bool
	folded     bool
	recovered  int
}

type fabRec struct {
	op, key, val uint64
}

// NewFabricDriver builds a sharded-fabric target for n threads.
func NewFabricDriver(kind fabric.Kind, n int, seed int64) Driver {
	return &fabricDriver{
		kind: kind, n: n, seed: seed,
		oracle: map[uint64]uint64{},
	}
}

func (d *fabricDriver) Name() string {
	if d.kind == fabric.WaitFree {
		return "fabric/PWFfabric"
	}
	return "fabric/PBfabric"
}

func (d *fabricDriver) Open(h *pmem.Heap) {
	d.m = fabric.New(h, "ff", d.n, fabric.Options{
		Shards: fabShards, Kind: d.kind, Flat: true,
		Capacity: fabShards * 128,
	})
	d.m.SetHistory(d.rec)
	d.durCut()
}

func (d *fabricDriver) BeginRound(round int) {
	d.round = round
	d.m.SetHistory(d.durBegin(d.n))
	d.initVals = map[uint64]uint64{}
	d.m.Range(func(k, v uint64) bool {
		d.initVals[k] = v
		return true
	})
	d.committed = make([][]fabRec, d.n)
	d.pendOp = make([]fabRec, d.n)
	d.pendActive = make([]bool, d.n)
	d.pendTxn = make([][]fabric.Leg, d.n)
	d.pendTxnOn = make([]bool, d.n)
	d.tRngs = make([]*rand.Rand, d.n)
	for i := range d.tRngs {
		d.tRngs[i] = rand.New(rand.NewSource(d.seed*12000 + int64(round*d.n+i)))
	}
	d.resolved = make([]bool, d.n)
	d.folded = false
	d.recovered = 0
}

func (d *fabricDriver) Step(tid, i int) {
	r := d.tRngs[tid]
	if r.Intn(4) == 0 {
		d.stepTxn(tid, i, r)
		return
	}
	key := uint64(tid)<<32 | uint64(r.Intn(fabKeys)) + 1
	switch r.Intn(3) {
	case 0:
		val := uint64(d.round+1)<<40 | uint64(i) + 1
		d.pendOp[tid] = fabRec{fabric.OpPut, key, val}
		d.pendActive[tid] = true
		d.m.Put(tid, key, val)
		d.committed[tid] = append(d.committed[tid], fabRec{fabric.OpPut, key, val})
	case 1:
		d.pendOp[tid] = fabRec{fabric.OpDel, key, 0}
		d.pendActive[tid] = true
		d.m.Delete(tid, key)
		d.committed[tid] = append(d.committed[tid], fabRec{fabric.OpDel, key, 0})
	default:
		d.pendOp[tid] = fabRec{fabric.OpGet, key, 0}
		d.pendActive[tid] = true
		d.m.Get(tid, key)
		d.committed[tid] = append(d.committed[tid], fabRec{fabric.OpGet, key, 0})
	}
	d.pendActive[tid] = false
}

// stepTxn issues one cross-shard transaction: a TransferAdd between two of
// tid's accounts (opposite two's-complement deltas — the conservation case)
// or a PutAll over a few of tid's scalar keys (the multi-key atomic-update
// case). A crash before the commit word discards the whole transaction; after
// it, recovery replays every shard group exactly once.
func (d *fabricDriver) stepTxn(tid, i int, r *rand.Rand) {
	var legs []fabric.Leg
	if r.Intn(2) == 0 {
		a := r.Intn(fabAccounts)
		b := (a + 1 + r.Intn(fabAccounts-1)) % fabAccounts
		amt := fabAmount(r)
		legs = []fabric.Leg{
			{Op: fabric.OpAdd, Key: fabAcctKey(tid, a), Val: -amt},
			{Op: fabric.OpAdd, Key: fabAcctKey(tid, b), Val: amt},
		}
	} else {
		cnt := 2 + r.Intn(2)
		seen := map[uint64]bool{}
		for len(legs) < cnt {
			key := uint64(tid)<<32 | uint64(r.Intn(fabKeys)) + 1
			if seen[key] {
				continue
			}
			seen[key] = true
			val := uint64(d.round+1)<<40 | uint64(i+1)<<8 | uint64(len(legs)+1)
			legs = append(legs, fabric.Leg{Op: fabric.OpPut, Key: key, Val: val})
		}
	}
	d.pendTxn[tid] = legs
	d.pendTxnOn[tid] = true
	d.m.Txn(tid, legs)
	for _, l := range legs {
		d.committed[tid] = append(d.committed[tid], fabRec{l.Op, l.Key, l.Val})
	}
	d.pendTxnOn[tid] = false
}

func (d *fabricDriver) Recover() (int, error) {
	if !d.folded {
		for tid := 0; tid < d.n; tid++ {
			for _, c := range d.committed[tid] {
				applyFabOracle(d.oracle, c.op, c.key, c.val)
			}
		}
		d.folded = true
	}
	for tid := 0; tid < d.n; tid++ {
		if d.resolved[tid] {
			continue
		}
		switch {
		case d.pendTxnOn[tid]:
			legs := d.m.Recover(tid)
			d.resolved[tid] = true
			d.recovered++
			if len(legs) == 0 {
				// The crash hit before the commit word: the transaction is
				// discarded wholesale — no shard was invoked, no counter
				// moved, and the oracle must not see any leg.
				continue
			}
			if len(legs) != len(d.pendTxn[tid]) {
				return d.recovered, fmt.Errorf("tid %d: recovered txn with %d legs, want %d",
					tid, len(legs), len(d.pendTxn[tid]))
			}
			// Committed before the crash: recovery replayed every shard group
			// exactly once, so all legs take effect atomically.
			for _, l := range d.pendTxn[tid] {
				applyFabOracle(d.oracle, l.Op, l.Key, l.Val)
			}
		case d.pendActive[tid]:
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
			applyFabOracle(d.oracle, d.pendOp[tid].op, d.pendOp[tid].key, d.pendOp[tid].val)
		}
	}
	return d.recovered, nil
}

func (d *fabricDriver) Check() error {
	// Oracle probes are real operations; detach the recorder so their
	// responses cannot attach to legs a crashed transaction left pending.
	d.m.SetHistory(nil)
	for key, want := range d.oracle {
		got, ok := d.m.Get(int(key>>32), key)
		if ok && got != want {
			return fmt.Errorf("key %x = %d want %d", key, got, want)
		}
		// Accounts exist in the map even at balance 0 (Add inserts, never
		// deletes), so an absent key is only legal for a zero oracle value.
		if !ok && want != 0 {
			return fmt.Errorf("key %x absent, want %d", key, want)
		}
	}
	// Conservation: the transfer accounts only ever see opposite-delta Add
	// pairs, so their sum mod 2^64 must be exactly zero — a torn transaction
	// (one leg applied, the other lost) is the only way to break it.
	var acctSum uint64
	cnt := 0
	d.m.Range(func(k, v uint64) bool {
		if k&0x10000 != 0 {
			acctSum += v
			cnt++
		}
		return true
	})
	if cnt > 0 && acctSum != 0 {
		return fmt.Errorf("transfer conservation violated: account sum %d (mod 2^64) across %d accounts", acctSum, cnt)
	}
	return nil
}

// CheckHistory implements HistoryDriver: the history (including every
// transaction leg, recorded per leg) partitions perfectly by key; each class
// closes with one audit get of the key's final durable value over the per-key
// map model, which understands Put/Get/Del and the transfer legs' fetch&add.
func (d *fabricDriver) CheckHistory() (bool, error) {
	if d.rec == nil {
		return false, nil
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

// applyFabOracle folds one committed operation into the per-key oracle. Adds
// accumulate (absent key = 0, matching the map's insert-delta semantics);
// unlike Put/Del keys, an account that walks back to balance 0 still exists
// in the map, which Check tolerates explicitly.
func applyFabOracle(oracle map[uint64]uint64, op, key, val uint64) {
	switch op {
	case fabric.OpPut:
		oracle[key] = val
	case fabric.OpDel:
		delete(oracle, key)
	case fabric.OpAdd:
		oracle[key] = oracle[key] + val
	}
}
