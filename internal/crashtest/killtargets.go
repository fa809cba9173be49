package crashtest

import (
	"fmt"
	"math/rand"

	"pcomb"
	"pcomb/internal/fabric"
	"pcomb/internal/hashmap"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
)

// KillTarget is a structure under test in the process-kill campaign. Unlike
// Driver (whose state spans simulated crashes inside one process), a
// KillTarget instance lives exactly one heap attach: the child process
// attaches one to run the workload, the verifier attaches a fresh one to the
// reopened file. All cross-process state is durable — in the structure
// itself and in the kill Journal.
type KillTarget interface {
	Name() string
	// Attach creates (first run) or reattaches (restart) the structure.
	Attach(h *pmem.Heap, n int)
	// Step journals and issues thread tid's i-th operation of the round.
	Step(j *Journal, tid, i int, round uint64, rng *rand.Rand)
	// Resolve finishes thread tid's interrupted operation after a reattach:
	// an open journal record is resolved through the structure's recovery
	// function and marked recovered; an already-recovered record (a previous
	// recovery pass was itself killed) is re-resolved and its response
	// compared — recovery must be idempotent.
	Resolve(j *Journal, tid int) error
	// Verify rebuilds the round's durable-linearizability history from the
	// journal plus state audits of the reattached structure and checks it.
	// initial is the previous round's Snapshot. checked is false when the
	// check was skipped (history too large or budget exhausted).
	Verify(j *Journal, initial []uint64, opts DurLinOpts) (checked bool, err error)
	// Snapshot encodes the structure's durable state: the seed for the next
	// round's Verify.
	Snapshot() []uint64
}

// KillTargetDef names a constructible kill target.
type KillTargetDef struct {
	Name string
	Mk   func() KillTarget
}

// KillTargets returns the process-kill campaign matrix:
// {PBcomb, PWFcomb} x {queue, map}, plus the epoch-mode queues. The epoch
// targets are the harness's sharpest test: on the file-backed heap only
// closed epochs' write-backs reach the mapped shadow, so a SIGKILL really
// does lose the open epoch — the verifier must see every closed-epoch
// completion survive while open-epoch completions are free to vanish.
func KillTargets() []KillTargetDef {
	return []KillTargetDef{
		{"queue/PBqueue", func() KillTarget { return &queueKT{kind: queue.Blocking, name: "queue/PBqueue"} }},
		{"queue/PWFqueue", func() KillTarget { return &queueKT{kind: queue.WaitFree, name: "queue/PWFqueue"} }},
		{"queue/PBqueue-epoch", func() KillTarget {
			return &queueKT{kind: queue.Blocking, epoch: true, name: "queue/PBqueue-epoch"}
		}},
		{"queue/PWFqueue-epoch", func() KillTarget {
			return &queueKT{kind: queue.WaitFree, epoch: true, name: "queue/PWFqueue-epoch"}
		}},
		{"map/PBmap", func() KillTarget { return &mapKT{kind: hashmap.Blocking, name: "map/PBmap"} }},
		{"map/PWFmap", func() KillTarget { return &mapKT{kind: hashmap.WaitFree, name: "map/PWFmap"} }},
		// Sharded-fabric bank transfer: hierarchical combining shards with
		// cross-shard atomic transactions; recovery must be all-or-nothing
		// whatever the kill point (conservation audit + per-account durlin).
		{"fabric/PBfabric", func() KillTarget { return &fabricKT{kind: fabric.Blocking, name: "fabric/PBfabric"} }},
		{"fabric/PWFfabric", func() KillTarget { return &fabricKT{kind: fabric.WaitFree, name: "fabric/PWFfabric"} }},
		// Durable RESP server over loopback TCP: the child runs an in-process
		// server plus one pipelining client per thread; every command is
		// journaled client-side, so the verifier holds the whole stack —
		// parser, batch scheduler, combining pipe, recovery-on-start — to
		// durable linearizability across real SIGKILLs.
		{"srv/PBsrv", func() KillTarget { return &srvKT{kind: pcomb.Blocking, name: "srv/PBsrv"} }},
		{"srv/PWFsrv", func() KillTarget { return &srvKT{kind: pcomb.WaitFree, name: "srv/PWFsrv"} }},
		{"srv/PBsrv-epoch", func() KillTarget {
			return &srvKT{kind: pcomb.Blocking, epoch: true, name: "srv/PBsrv-epoch"}
		}},
	}
}

// LookupKillTarget resolves a target name.
func LookupKillTarget(name string) (KillTargetDef, bool) {
	for _, d := range KillTargets() {
		if d.Name == name {
			return d, true
		}
	}
	return KillTargetDef{}, false
}

// killStamps computes the round's crash-cut timestamp: one past every
// durable stamp (open and recovered records linearize in the interval
// [invocation, cut]).
func killStamps(j *Journal, threads int) int64 {
	var max uint64
	for tid := 0; tid < threads; tid++ {
		for _, rec := range j.Records(tid) {
			if rec.Call > max {
				max = rec.Call
			}
			if rec.Ret > max {
				max = rec.Ret
			}
		}
	}
	return int64(max) + 1
}

// killHistory decodes the journal into checker ops. Open records are
// pending (free to take effect or vanish), recovered records carry their
// exactly-once response. stamp is the durable epoch stamp the verifier found
// at reopen (0 for strict targets): completed records labeled past it were
// acknowledged only volatile, so they are downgraded to StatusVolatile —
// allowed to vanish with the kill, but held to their recorded response if
// they linearize.
func killHistory(j *Journal, threads int, stamp uint64) []lin.Op {
	cut := killStamps(j, threads)
	var hist []lin.Op
	for tid := 0; tid < threads; tid++ {
		for _, rec := range j.Records(tid) {
			op := lin.Op{
				Thread: tid, Kind: rec.Kind, Arg: rec.A0, Arg2: rec.A1,
				Call: int64(rec.Call), Return: cut,
			}
			switch rec.State {
			case recDone:
				op.Status = lin.StatusCompleted
				op.Out = rec.Out
				op.Return = int64(rec.Ret)
				if rec.Epoch > stamp {
					op.Status = lin.StatusVolatile
				}
			case recRecovered:
				op.Status = lin.StatusRecovered
				op.Out = rec.Out
			default:
				op.Status = lin.StatusPending
			}
			hist = append(hist, op)
		}
	}
	return hist
}

func durLinDefaults(o DurLinOpts) DurLinOpts {
	if o.Budget <= 0 {
		o.Budget = lin.DefaultBudget
	}
	if o.MaxOps <= 0 {
		o.MaxOps = DefaultDurLinMaxOps
	}
	return o
}

// ---------------------------------------------------------------- queue --

const (
	killQueueSeqEnq = 0 // journal sequence class of the enqueue instance
	killQueueSeqDeq = 1 // ... and of the dequeue instance

	// killQueueCapacity bounds the node arena. Crash-leaked nodes are never
	// reclaimed (the pool's persistent cursor only grows), so the arena must
	// absorb a whole campaign: at 3 threads x ~24 ops x hundreds of rounds
	// plus a leaked chunk per kill, 1<<18 nodes (4 MiB) is ample.
	killQueueCapacity = 1 << 18
)

type queueKT struct {
	kind  queue.Kind
	epoch bool
	name  string
	n     int
	q     *queue.Queue

	// stamp is the durable epoch stamp found at attach — the crash cut for
	// this process lifetime's verification (epoch targets only).
	stamp uint64
}

func (t *queueKT) Name() string { return t.name }

func (t *queueKT) Attach(h *pmem.Heap, n int) {
	t.n = n
	t.q = queue.New(h, "kq", n, t.kind,
		queue.Options{Capacity: killQueueCapacity, Epoch: t.epoch})
	if t.epoch {
		// No background ticker (EpochInterval 0): closes happen only at the
		// explicit Sync calls Step and Resolve issue, so the kill schedule,
		// not wall-clock timing, decides which epochs close before the kill.
		t.stamp = t.q.EpochClosed()
	}
}

func (t *queueKT) Step(j *Journal, tid, i int, round uint64, rng *rand.Rand) {
	if t.epoch && rng.Intn(6) == 0 {
		// Group commit: close the open epoch every ~6 ops per thread. In
		// epoch mode the workers emit no persistence events at all, so these
		// closes are also where the event-indexed SIGKILL can land.
		t.q.Sync()
	}
	// Enqueue with probability 7/16: the slight dequeue bias keeps the
	// residue (and with it the verifier's audit count) drifting toward
	// empty across rounds instead of growing without bound.
	if rng.Intn(16) < 7 {
		v := (round+1)<<32 | uint64(tid)<<24 | uint64(i) + 1
		seq, idx := j.Begin(tid, killQueueSeqEnq, queue.OpEnq, v, 0)
		t.q.Enqueue(tid, v, seq)
		t.end(j, tid, idx, queue.EnqOK)
	} else {
		seq, idx := j.Begin(tid, killQueueSeqDeq, queue.OpDeq, 0, 0)
		v, ok := t.q.Dequeue(tid, seq)
		out := queue.Empty
		if ok {
			out = v
		}
		t.end(j, tid, idx, out)
	}
}

// end journals the response; epoch targets label it with the open epoch read
// after the operation returned.
func (t *queueKT) end(j *Journal, tid, idx int, out uint64) {
	if t.epoch {
		j.EndEpoch(tid, idx, out, t.q.EpochNow())
		return
	}
	j.End(tid, idx, out)
}

func (t *queueKT) resolveRec(rec KillRec, tid int) uint64 {
	if rec.Kind == queue.OpEnq {
		return t.q.RecoverEnqueue(tid, rec.A0, rec.Seq)
	}
	v, ok := t.q.RecoverDequeue(tid, rec.Seq)
	if !ok {
		return queue.Empty
	}
	return v
}

func (t *queueKT) Resolve(j *Journal, tid int) error {
	if t.epoch {
		// Pin the crash-cut stamp BEFORE this pass closes any epoch: recovery
		// itself calls Sync, so a later reattach (the parent after a killed
		// recovery child) reads a stamp advanced past epochs whose write-backs
		// died with the workload child. The journal keeps the first post-kill
		// observation until the round is reset; Verify must judge against that,
		// not against whatever the stamp says after recovery ran.
		t.stamp = j.EpochCut(t.stamp)
		t.resolveEpoch(j, tid)
		return nil
	}
	for _, rec := range j.Records(tid) {
		switch rec.State {
		case recOpen:
			out := t.resolveRec(rec, tid)
			j.MarkRecovered(tid, rec.Idx, out)
		case recRecovered:
			// A recovery pass already resolved this record and was then
			// killed: re-running the recovery function must reproduce the
			// same response (detectable recoverability is idempotent).
			again := t.resolveRec(rec, tid)
			if again != rec.Out {
				return fmt.Errorf("%s: double recovery diverged for tid %d op %d: %d then %d",
					t.name, tid, rec.Idx, rec.Out, again)
			}
		}
	}
	return nil
}

// resolveEpoch is the epoch-mode recovery pass. An open record is re-performed
// only when the durable deactivate parity PROVES the operation never committed
// (parity gating): a matching parity is ambiguous — the effect may be durable,
// or may have vanished with the open epoch — so the record stays open and the
// checker lets it take effect or vanish. Each re-perform is made durable by an
// epoch close BEFORE the record is marked recovered, so a kill inside this
// very pass can only leave the record open with the effect durable (pending
// with effect: legal) or untouched (retried next pass) — never marked with a
// rolled-back effect. Already-recovered records are left alone: the strict
// targets' double-recovery comparison would re-run the structure recovery,
// but after the close the parity reads "served" and re-performing is no
// longer possible.
func (t *queueKT) resolveEpoch(j *Journal, tid int) {
	for _, rec := range j.Records(tid) {
		if rec.State != recOpen {
			continue
		}
		if rec.Kind == queue.OpEnq {
			if t.q.EnqDeactParity(tid) == rec.Seq&1 {
				continue
			}
		} else if t.q.DeqDeactParity(tid) == rec.Seq&1 {
			continue
		}
		out := t.resolveRec(rec, tid)
		t.q.Sync()
		j.MarkRecovered(tid, rec.Idx, out)
	}
}

func (t *queueKT) Verify(j *Journal, initial []uint64, opts DurLinOpts) (bool, error) {
	opts = durLinDefaults(opts)
	hist := killHistory(j, t.n, t.stamp)
	residue := t.q.Snapshot()
	if len(hist)+len(residue)+1 > opts.MaxOps {
		return false, nil
	}
	var audits []lin.Op
	for _, v := range residue {
		audits = append(audits, lin.Op{Kind: lin.KindDeq, Out: v})
	}
	audits = append(audits, lin.Op{Kind: lin.KindDeq, Out: lin.EmptyOut})
	hist = lin.AppendAudits(hist, audits...)
	res := lin.CheckDurable(lin.QueueModel{Initial: initial}, hist, lin.Opts{Budget: opts.Budget})
	return killVerdict(res)
}

func (t *queueKT) Snapshot() []uint64 { return t.q.Snapshot() }

// AlignSeqs (killVerify calls it after the journal reset) realigns both
// instances' sequence bases with the structure's durable deactivate parities,
// so sequence numbers consumed by vanished operations cannot make the next
// round's first operation look already-served. Strict targets never drift.
func (t *queueKT) AlignSeqs(j *Journal) {
	if !t.epoch {
		return
	}
	for tid := 0; tid < t.n; tid++ {
		j.AlignSeqBase(tid, killQueueSeqEnq, t.q.EnqDeactParity(tid))
		j.AlignSeqBase(tid, killQueueSeqDeq, t.q.DeqDeactParity(tid))
	}
}

// ------------------------------------------------------------------ map --

const (
	killMapShards = 8
	killMapKeys   = 32 // per-thread key window
)

type mapKT struct {
	kind hashmap.Kind
	name string
	n    int
	m    *hashmap.Map
}

func (t *mapKT) Name() string { return t.name }

func (t *mapKT) Attach(h *pmem.Heap, n int) {
	t.n = n
	t.m = hashmap.NewWith(h, "km", n, t.kind,
		hashmap.Options{Shards: killMapShards, Capacity: mapCapacity(killMapShards)})
}

func (t *mapKT) Step(j *Journal, tid, i int, round uint64, rng *rand.Rand) {
	key := uint64(tid)<<32 | uint64(rng.Intn(killMapKeys)) + 1
	switch rng.Intn(3) {
	case 0:
		val := (round+1)<<32 | uint64(i) + 1
		_, idx := j.Begin(tid, 0, hashmap.OpPut, key, val)
		prev, _ := t.m.Put(tid, key, val)
		j.End(tid, idx, prev)
	case 1:
		_, idx := j.Begin(tid, 0, hashmap.OpDel, key, 0)
		v, ok := t.m.Delete(tid, key)
		out := hashmap.NotFound
		if ok {
			out = v
		}
		j.End(tid, idx, out)
	default:
		_, idx := j.Begin(tid, 0, hashmap.OpGet, key, 0)
		v, ok := t.m.Get(tid, key)
		out := hashmap.NotFound
		if ok {
			out = v
		}
		j.End(tid, idx, out)
	}
}

func (t *mapKT) Resolve(j *Journal, tid int) error {
	rec, hasOpen := j.Open(tid)
	for _, r := range t.m.Recover(tid) {
		// The map's own system area had the op in flight: the journal must have
		// committed its record first (Begin precedes invocation).
		if !hasOpen {
			return fmt.Errorf("%s: tid %d pending in structure but journal has no open record", t.name, tid)
		}
		if r.Op != rec.Kind || r.A0 != rec.A0 {
			return fmt.Errorf("%s: tid %d recovered (%d,%x), journal says (%d,%x)",
				t.name, tid, r.Op, r.A0, rec.Kind, rec.A0)
		}
		j.MarkRecovered(tid, rec.Idx, r.Result)
	}
	// !pending with an open journal record: the kill landed before the
	// system-area record was written (no effect) or after the operation
	// completed in-structure but before the journal response (effect
	// applied, response lost). Either way the record stays pending — the
	// checker lets it take effect or vanish, both of which are real
	// possibilities here.
	return nil
}

func (t *mapKT) Verify(j *Journal, initial []uint64, opts DurLinOpts) (bool, error) {
	opts = durLinDefaults(opts)
	hist := killHistory(j, t.n, 0)
	initVals := map[uint64]uint64{}
	for i := 0; i+1 < len(initial); i += 2 {
		initVals[initial[i]] = initial[i+1]
	}
	final := map[uint64]uint64{}
	t.m.Range(func(k, v uint64) bool {
		final[k] = v
		return true
	})
	touched := map[uint64]bool{}
	for _, op := range hist {
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
	hist = lin.AppendAudits(hist, audits...)
	res := lin.CheckDurablePartitioned(func(class uint64) lin.Model {
		init := lin.EmptyOut
		if v, ok := initVals[class]; ok {
			init = v
		}
		return lin.MapKeyModel{Initial: init}
	}, func(op lin.Op) uint64 { return op.Arg }, hist, lin.Opts{Budget: opts.Budget})
	return killVerdict(res)
}

func (t *mapKT) Snapshot() []uint64 {
	var out []uint64
	t.m.Range(func(k, v uint64) bool {
		out = append(out, k, v)
		return true
	})
	return out
}

// killVerdict folds a checker result: violations are errors, an exhausted
// budget is a counted skip.
func killVerdict(res lin.Result) (bool, error) {
	switch res.Outcome {
	case lin.Ok:
		return true, nil
	case lin.Exhausted:
		return false, nil
	}
	return true, fmt.Errorf("durable-linearizability violation: %w", res.Err())
}
