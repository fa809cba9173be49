// Package sysarea is the system support the paper assumes for detectable
// recoverability and every structure in this repository shares: for each
// thread, a durable sequence counter per combining instance (class) and one
// durable record of the operation in progress, plus the single routine that
// resolves an interrupted operation after a crash.
//
// Stores bypass the instruction pipeline (DirectStore): this state is
// persisted by the system, not by the algorithm, and its cost is deliberately
// not charged to the algorithms — matching the paper's experimental setup,
// where seq is an input.
//
// Per-thread layout (stride words, a whole number of cache lines):
//
//	[0,K)  seq    — one sequence counter per class
//	K+0    op     — operation code in progress (VecMark: a vector)
//	K+1    a0     — first argument (vector: its length)
//	K+2    a1     — second argument
//	K+3    class  — combining instance the op runs on
//	K+4    seq    — sequence number passed to the op
//	K+5    done   — 1 once the response was delivered
//
// Store order (beginStores): arguments, class, seq, then op, then done=0, and
// the class counter LAST. Every prefix of that sequence reads correctly: up
// to done=0 the record is closed (or, on a fresh area, op is still 0) and the
// counter has not moved, so the operation simply never started; from done=0
// on the record is open and complete, and Recover rolls the counter forward
// from it. The counter can therefore never run ahead of a record recovery
// cannot see — the state in which the next operation would draw a sequence
// number whose parity matches the durable deactivate bit and be silently
// dropped as "already applied".
package sysarea

import (
	"pcomb/internal/core"
	"pcomb/internal/history"
	"pcomb/internal/pmem"
)

// Log is an operation history the area reports to, for durable-linearizability
// checking: every invocation (Begin, before the operation's first durable
// store), every response (End, completing the thread's oldest open
// invocation) and every recovered response (Resolve, likewise). The
// in-process history.Recorder and the crash tests' file-backed journal both
// implement it. SetEpochClock hands the log the structure's open-epoch label
// source, read at each End.
type Log interface {
	Begin(tid int, kind, a0, a1 uint64)
	End(tid int, out uint64)
	Resolve(tid int, out uint64) bool
	SetEpochClock(clock func() uint64)
}

// VecMark in the op word flags the record as a vectorized announcement: a0
// holds the vector length and the operations live in the instance's
// persistent argument ring, durable before the record was written. Scalar op
// codes must therefore stay below 2^63 (and above 0, which reads as "no
// record").
const VecMark = uint64(1) << 63

// Record words, after the K class counters.
const (
	recOp = iota
	recA0
	recA1
	recClass
	recSeq
	recDone
	recWords
)

// Resolved is one operation Recover settled: its code and arguments as
// invoked, and its response. Certain is false only under epoch-mode relaxed
// durability, for an operation whose durable deactivate parity cannot tell
// "durably served" from "vanished with the open epoch": it was left
// untouched, Result is meaningless, and the caller must treat it as either
// applied or lost, like any other operation of the open epoch.
type Resolved struct {
	Op, A0, A1 uint64
	Result     uint64
	Certain    bool
}

// Area is one structure's system area.
type Area struct {
	r      *pmem.Region
	k      int
	stride int
	insts  []core.Protocol // class -> combining instance
	epoch  *pmem.Epoch     // non-nil under epoch-mode relaxed durability
	hist   Log             // optional durable-linearizability log
}

// New creates — or re-attaches after a crash — the system area named name
// for n threads over the combining instances insts (one class each). epoch is
// the structure's epoch state, nil in strict mode.
func New(h *pmem.Heap, name string, n int, insts []core.Protocol, epoch *pmem.Epoch) *Area {
	k := len(insts)
	stride := pmem.RoundUpLine(k + recWords)
	return &Area{r: h.AllocOrGet(name, n*stride), k: k, stride: stride, insts: insts, epoch: epoch}
}

// SetHistory installs (or, with nil, removes) an operation log on the
// invocation, vector and recovery paths. Install while quiescent. A nil
// *history.Recorder removes the log like the nil interface does: a caller
// holding a recorder variable passes it as it is, and must not end up with a
// non-nil log the next operation dereferences.
func (a *Area) SetHistory(h Log) {
	if r, ok := h.(*history.Recorder); ok && r == nil {
		h = nil
	}
	if h != nil && a.epoch != nil {
		h.SetEpochClock(a.epoch.Now)
	}
	a.hist = h
}

// History returns the installed log (nil when none); the fabric's
// transactions record their legs through it.
func (a *Area) History() Log { return a.hist }

// Seq returns tid's sequence counter of class.
func (a *Area) Seq(tid, class int) uint64 { return a.r.Load(tid*a.stride + class) }

// RollSeq moves tid's class counter forward to seq (never backwards): the
// repair for a crash between a durable record and its counter store, used
// here for the in-progress record and by the fabric for its redo log.
func (a *Area) RollSeq(tid, class int, seq uint64) {
	if i := tid*a.stride + class; a.r.Load(i) < seq {
		a.r.DirectStore(i, seq)
	}
}

type store struct {
	i int
	v uint64
}

// beginStores is the ordered store sequence that opens tid's record (see the
// package comment for why this order).
func (a *Area) beginStores(tid, class int, op, a0, a1, seq uint64) [7]store {
	b := tid * a.stride
	rec := b + a.k
	return [7]store{
		{rec + recA0, a0},
		{rec + recA1, a1},
		{rec + recClass, uint64(class)},
		{rec + recSeq, seq},
		{rec + recOp, op},
		{rec + recDone, 0},
		{b + class, seq},
	}
}

func (a *Area) open(tid, class int, op, a0, a1 uint64) uint64 {
	seq := a.Seq(tid, class) + 1
	for _, s := range a.beginStores(tid, class, op, a0, a1, seq) {
		a.r.DirectStore(s.i, s.v)
	}
	return seq
}

func (a *Area) close(tid int) { a.r.DirectStore(tid*a.stride+a.k+recDone, 1) }

// Begin durably records that tid is about to run op on class and returns the
// sequence number to run it with. Callers that reach the instance through
// something other than a direct Invoke (the fabric's posting boards) bracket
// the operation with Begin and End; everyone else calls Invoke.
func (a *Area) Begin(tid, class int, op, a0, a1 uint64) uint64 {
	if h := a.hist; h != nil {
		// Before the first durable store, so a crash anywhere in the op
		// leaves it pending in the history.
		h.Begin(tid, op, a0, a1)
	}
	return a.open(tid, class, op, a0, a1)
}

// End durably marks tid's operation completed with response ret.
func (a *Area) End(tid int, ret uint64) {
	a.close(tid)
	if h := a.hist; h != nil {
		h.End(tid, ret)
	}
}

// Invoke runs one recorded operation on class's instance.
func (a *Area) Invoke(tid, class int, op, a0, a1 uint64) uint64 {
	seq := a.Begin(tid, class, op, a0, a1)
	ret := a.insts[class].Invoke(tid, op, a0, a1, seq)
	a.End(tid, ret)
	return ret
}

// Read answers a read-only operation from class's last durable record
// (core's Read). A read changes nothing and needs no detectability — a
// crash-interrupted one is simply re-issued — so it draws no sequence number
// and performs no store: the thread's record keeps describing its last update,
// Recover never reports a read, and in a history the crash leaves it pending.
// Only when the instance gives up validating against running writers (or its
// object has no read face) is the operation recorded and announced like an
// update, with a sequence number drawn now.
func (a *Area) Read(tid, class int, op, a0, a1 uint64) uint64 {
	h := a.hist
	if h != nil {
		h.Begin(tid, op, a0, a1)
	}
	ret, ok := a.insts[class].Read(tid, op, a0, a1)
	if !ok {
		seq := a.open(tid, class, op, a0, a1)
		ret = a.insts[class].Invoke(tid, op, a0, a1, seq)
		a.close(tid)
	}
	if h != nil {
		h.End(tid, ret)
	}
	return ret
}

// InvokeVec runs ops as one recorded vectorized announcement on class's
// instance (built with VecCap >= len(ops)) and fills rets[:len(ops)].
func (a *Area) InvokeVec(tid, class int, ops []core.VecOp, rets []uint64) {
	vp := a.insts[class].(core.VecProtocol)
	h := a.hist
	if h != nil {
		// One invocation per op, in ring order, before the vector's first
		// persistence event: a crash mid-vector leaves exactly these pending.
		for _, o := range ops {
			h.Begin(tid, o.Op, o.A0, o.A1)
		}
	}
	// Ring first, then the record: recovery may trust the ring only because
	// the record is ordered after the ring's pfence.
	vp.PublishVec(tid, ops)
	seq := a.open(tid, class, VecMark, uint64(len(ops)), 0)
	vp.PerformVec(tid, len(ops), seq, rets)
	a.close(tid)
	if h != nil {
		for _, r := range rets[:len(ops)] {
			h.End(tid, r)
		}
	}
}

// Flusher returns InvokeVec bound to class, in the shape of a vecbatch pipe's
// commit function.
func (a *Area) Flusher(class int) func(tid int, ops []core.VecOp, rets []uint64) {
	return func(tid int, ops []core.VecOp, rets []uint64) { a.InvokeVec(tid, class, ops, rets) }
}

// realign bumps tid's counters past parity collisions with the durable
// deactivate bits, restoring the invariant the protocols' detectability
// rests on: the NEXT sequence number's low bit differs from the durable
// deactivate bit. Strict mode keeps it by construction; under an epoch,
// completions that vanished with the open epoch consumed counter values the
// durable state never saw. Skipped numbers are harmless — the protocols only
// consume the low bit.
func (a *Area) realign(tid int) {
	if a.epoch == nil {
		return
	}
	for class, inst := range a.insts {
		if cnt := a.Seq(tid, class); (cnt+1)&1 == inst.(core.EpochCapable).DeactParity(tid) {
			a.r.DirectStore(tid*a.stride+class, cnt+1)
		}
	}
}

// Recorded reports rs — operations some durable log outside the in-progress
// record resolved for tid (the fabric's transaction legs) — to the history,
// oldest first, and returns them. Every recovery path's results pass through
// here, so a recorder sees each recovered operation exactly once.
func (a *Area) Recorded(tid int, rs []Resolved) []Resolved {
	if h := a.hist; h != nil {
		for i := range rs {
			h.Resolve(tid, rs[i].Result)
		}
	}
	return rs
}

// Recover resolves tid's interrupted operation after a crash — re-runs it or
// fetches its response, never both — and returns what it settled: nothing
// when tid had no operation in flight, one entry for a scalar operation, one
// per operation for a vector. Call it for every thread after re-opening,
// before new operations.
//
// Under an epoch the in-flight record may belong to an epoch that vanished,
// and the deactivate parity cannot always tell "this op was durably served"
// from "an earlier op with the same parity was" — fetching the return slot
// then would hand back a stale response. So a parity equal to the record's
// low seq bit closes the record untouched (Certain=false; the durable state
// is consistent either way), and a differing one — the op provably did not
// commit — re-performs it and closes the epoch BEFORE the record: a crash
// inside the close retries with the record still open and the re-performance
// rolled back, so no resolution is lost or doubled.
func (a *Area) Recover(tid int) []Resolved {
	rec := tid*a.stride + a.k
	op := a.r.Load(rec + recOp)
	if op == 0 || a.r.Load(rec+recDone) == 1 {
		a.realign(tid)
		return nil
	}
	a0, a1 := a.r.Load(rec+recA0), a.r.Load(rec+recA1)
	class, seq := int(a.r.Load(rec+recClass)), a.r.Load(rec+recSeq)
	a.RollSeq(tid, class, seq)
	inst := a.insts[class]

	out := []Resolved{{Op: op, A0: a0, A1: a1}}
	var ops []core.VecOp
	if op&VecMark != 0 {
		vp := inst.(core.VecProtocol)
		ops = make([]core.VecOp, a0)
		out = make([]Resolved, a0)
		for i := range ops {
			ops[i] = vp.VecArg(tid, i)
			out[i] = Resolved{Op: ops[i].Op, A0: ops[i].A0, A1: ops[i].A1}
		}
	}
	if a.epoch != nil && inst.(core.EpochCapable).DeactParity(tid) == seq&1 {
		a.close(tid)
		a.realign(tid)
		return out
	}
	if ops != nil {
		rets := make([]uint64, len(ops))
		inst.(core.VecProtocol).RecoverVec(tid, ops, seq, rets)
		for i, r := range rets {
			out[i].Result = r
		}
	} else {
		out[0].Result = inst.Recover(tid, op, a0, a1, seq)
	}
	if a.epoch != nil {
		a.epoch.CloseNow()
	}
	a.close(tid)
	for i := range out {
		out[i].Certain = true
	}
	// Realignment writes durable words and must not run against mid-crash
	// state, so it comes after the last point a nested crash can unwind from.
	a.realign(tid)
	return a.Recorded(tid, out)
}
