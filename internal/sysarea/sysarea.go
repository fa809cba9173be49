// Package sysarea is the system support the paper assumes for detectable
// recoverability and every structure in this repository shares: for each
// thread, a durable sequence counter per combining instance (class) and one
// durable record of the commit in progress, plus the single routine that
// resolves an interrupted commit after a crash. Structures that share an area
// (the server store's map and queue) share its record too, so one commit can
// span them.
//
// Stores bypass the instruction pipeline (DirectStore): this state is
// persisted by the system, not by the algorithm, and its cost is deliberately
// not charged to the algorithms — matching the paper's experimental setup,
// where seq is an input.
//
// Per-thread layout (stride words, a whole number of cache lines), for K
// classes and a payload of P operations (0 on a structure that commits one
// operation at a time):
//
//	[0,K)  seq    — one sequence counter per class
//	K+0    op     — operation code in progress (vecMark|groups: a multi-op commit)
//	K+1    a0     — first argument
//	K+2    a1     — second argument
//	K+3    class  — combining instance the op runs on
//	K+4    seq    — sequence number passed to the op
//	K+5    done   — 1 once the response was delivered
//	K+6    groups — (class, seq, cnt) per participating class, min(K, P) of them
//	…      payload — (op, a0, a1) x P, the commit's operations group by group
//
// A scalar operation fills the words K+1..K+4; a multi-op commit — a vector,
// a map's flush window, a cross-shard transaction — fills the group table and
// the payload. Both store everything the record describes first, then op,
// then done=0 (the commit point), and every participating class counter LAST
// (beginStores, commitStores). Every prefix of either sequence reads
// correctly: up to done=0 the record is closed (or, on a fresh area, op is
// still 0) and no counter has moved, so the commit simply never started; from
// done=0 on the record is open and complete, and Recover rolls the counters
// forward from it. A counter can therefore never run ahead of a record
// recovery cannot see — the state in which the next operation would draw a
// sequence number whose parity matches the durable deactivate bit and be
// silently dropped as "already applied".
package sysarea

import (
	"fmt"
	"slices"

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

// vecMark in the op word flags a multi-op commit; the low bits carry its group
// count. Scalar op codes must therefore stay below 2^63 (and above 0, which
// reads as "no record").
const vecMark = uint64(1) << 63

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

// Resolved is one operation Recover settled: the class it ran on (which tells
// apart structures sharing an area, whose op codes may coincide), its code and
// arguments as invoked, and its response. Certain is false only under
// epoch-mode relaxed durability, for an operation whose durable deactivate
// parity cannot tell "durably served" from "vanished with the open epoch": it
// was left untouched, Result is meaningless, and the caller must treat it as
// either applied or lost, like any other operation of the open epoch.
type Resolved struct {
	Class      int
	Op, A0, A1 uint64
	Result     uint64
	Certain    bool
}

// Area is one structure's system area — or one store's, when several
// structures share it and each owns some of its classes.
type Area struct {
	r       *pmem.Region
	k       int
	stride  int
	grpOff  int             // group table offset within a thread's block
	payOff  int             // payload offset within a thread's block
	payload int             // operations one multi-op commit may carry
	insts   []core.Protocol // class -> combining instance
	epoch   *pmem.Epoch     // non-nil under epoch-mode relaxed durability
	hist    []Log           // class -> optional durable-linearizability log
	scratch []scratch       // per thread, when payload > 0
}

// group is one class's share of a multi-op commit: ops[off:off+cnt] of the
// thread's scratch, announced as one vector under sequence number seq.
type group struct {
	class    int
	seq      uint64
	off, cnt int
}

// scratch is one thread's commit working set, sized in New from the payload
// so that a commit allocates nothing, and padded so neighbouring threads'
// slice headers never share a cache line.
type scratch struct {
	grps   []group      // participating classes, in first-appearance order
	pos    []int        // op i's group while grouping, then its index in ops
	ops    []core.VecOp // the operations in durable order: group by group
	rets   []uint64     // their results, in the same order
	stores []store      // the record's store sequence (commitStores)
	_      [8]byte
}

// New creates — or re-attaches after a crash — the system area named name
// for n threads over the combining instances insts (one class each; a nil
// entry is bound later, see Bind). epoch is the epoch state every class defers
// into, nil in strict mode. payload is the most operations one multi-op
// commit may carry — the structure's VecCap; below 2 the structure commits
// one operation at a time and its record has no payload. Part of the
// persistent layout: re-attach with the same value.
func New(h *pmem.Heap, name string, n int, insts []core.Protocol, epoch *pmem.Epoch, payload int) *Area {
	k := len(insts)
	if payload < 2 {
		payload = 0
	}
	grps := min(k, payload)
	a := &Area{k: k, grpOff: k + recWords, payload: payload, insts: insts, epoch: epoch, hist: make([]Log, k)}
	a.payOff = a.grpOff + 3*grps
	a.stride = pmem.RoundUpLine(a.payOff + 3*payload)
	a.r = h.AllocOrGet(name, n*a.stride)
	if payload > 0 {
		a.scratch = make([]scratch, n)
		for t := range a.scratch {
			a.scratch[t] = scratch{
				grps:   make([]group, 0, grps),
				pos:    make([]int, payload),
				ops:    make([]core.VecOp, payload),
				rets:   make([]uint64, payload),
				stores: make([]store, 0, 3*payload+4*grps+2),
			}
		}
	}
	return a
}

// Bind installs class's combining instance on an area built before it: a
// structure built on a caller's area binds its own classes.
func (a *Area) Bind(class int, inst core.Protocol) { a.insts[class] = inst }

// Epoch returns the epoch state every class defers into (nil in strict mode).
func (a *Area) Epoch() *pmem.Epoch { return a.epoch }

// SetHistory installs (or, with nil, removes) an operation log on the
// invocation, vector and recovery paths of classes, or of every class when
// none are named: each operation reports to its own class's log, so
// structures sharing an area keep histories of their own. Install while
// quiescent. A nil *history.Recorder removes the log like the nil interface
// does: a caller holding a recorder variable passes it as it is, and must not
// end up with a non-nil log the next operation dereferences.
func (a *Area) SetHistory(h Log, classes ...int) {
	if r, ok := h.(*history.Recorder); ok && r == nil {
		h = nil
	}
	if h != nil && a.epoch != nil {
		h.SetEpochClock(a.epoch.Now)
	}
	for c := range a.hist {
		if len(classes) == 0 || slices.Contains(classes, c) {
			a.hist[c] = h
		}
	}
}

// counter returns tid's sequence counter of class.
func (a *Area) counter(tid, class int) uint64 { return a.r.Load(tid*a.stride + class) }

// rollSeq moves tid's class counter forward to seq (never backwards): the
// repair for a crash between a durable record and its counter stores.
func (a *Area) rollSeq(tid, class int, seq uint64) {
	if i := tid*a.stride + class; a.r.Load(i) < seq {
		a.r.DirectStore(i, seq)
	}
}

type store struct {
	i int
	v uint64
}

// beginStores is the ordered store sequence that opens tid's record for one
// scalar operation (see the package comment for why this order).
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
	seq := a.counter(tid, class) + 1
	for _, s := range a.beginStores(tid, class, op, a0, a1, seq) {
		a.r.DirectStore(s.i, s.v)
	}
	return seq
}

func (a *Area) close(tid int) { a.r.DirectStore(tid*a.stride+a.k+recDone, 1) }

// group lays ops out in tid's scratch by class in first-appearance order,
// preserving program order within a class — count each group, place the
// groups back to back, then drop every op into its group's next free place —
// and returns the groups, each with the sequence number it will run under.
func (a *Area) group(tid int, ops []core.VecOp, classOf func(int, core.VecOp) int) []group {
	// Reject before the scratch is touched.
	if len(ops) > a.payload {
		panic(fmt.Sprintf("sysarea: %d operations exceed the record's payload of %d", len(ops), a.payload))
	}
	x := &a.scratch[tid]
	grps := x.grps[:0]
	for i, o := range ops {
		c := classOf(i, o)
		g := 0
		for g < len(grps) && grps[g].class != c {
			g++
		}
		if g == len(grps) {
			grps = append(grps, group{class: c, seq: a.counter(tid, c) + 1})
		}
		grps[g].cnt++
		x.pos[i] = g
	}
	off := 0
	for g := range grps {
		grps[g].off = off
		off += grps[g].cnt
		grps[g].cnt = 0 // counted up again as the ops are placed
	}
	for i, o := range ops {
		g := &grps[x.pos[i]]
		x.pos[i] = g.off + g.cnt
		x.ops[x.pos[i]] = o
		g.cnt++
	}
	return grps
}

// commitStores is the ordered store sequence, built in tid's scratch, that
// opens tid's record for the multi-op commit grps over ops (laid out by
// group): the payload and the group table, then op, then done=0, then every
// group's class counter (see the package comment for why this order).
func (a *Area) commitStores(tid int, grps []group, ops []core.VecOp) []store {
	b := tid * a.stride
	st := a.scratch[tid].stores[:0]
	p := b + a.payOff
	for _, o := range ops {
		st = append(st, store{p, o.Op}, store{p + 1, o.A0}, store{p + 2, o.A1})
		p += 3
	}
	for gi, g := range grps {
		gb := b + a.grpOff + 3*gi
		st = append(st, store{gb, uint64(g.class)}, store{gb + 1, g.seq}, store{gb + 2, uint64(g.cnt)})
	}
	st = append(st, store{b + a.k + recOp, vecMark | uint64(len(grps))}, store{b + a.k + recDone, 0})
	for _, g := range grps {
		st = append(st, store{b + g.class, g.seq})
	}
	return st
}

// Begin durably records that tid is about to run op on class and returns the
// sequence number to run it with. Callers that reach the instance through
// something other than a direct Invoke (the map's posting boards) bracket
// the operation with Begin and End; everyone else calls Invoke.
func (a *Area) Begin(tid, class int, op, a0, a1 uint64) uint64 {
	if h := a.hist[class]; h != nil {
		// Before the first durable store, so a crash anywhere in the op
		// leaves it pending in the history.
		h.Begin(tid, op, a0, a1)
	}
	return a.open(tid, class, op, a0, a1)
}

// End durably marks tid's operation on class completed with response ret.
func (a *Area) End(tid, class int, ret uint64) {
	a.close(tid)
	if h := a.hist[class]; h != nil {
		h.End(tid, ret)
	}
}

// Invoke runs one recorded operation on class's instance.
func (a *Area) Invoke(tid, class int, op, a0, a1 uint64) uint64 {
	seq := a.Begin(tid, class, op, a0, a1)
	ret := a.insts[class].Invoke(tid, op, a0, a1, seq)
	a.End(tid, class, ret)
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
	h := a.hist[class]
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

// InvokeGrouped runs ops as one failure-atomic commit and writes op i's
// response to rets[i]; it keeps neither slice and allocates nothing.
// classOf names op i's class: the ops are grouped by class in
// first-appearance order (program order within a class), recorded together
// with their groups in tid's record, and each group then runs as one
// vectorized announcement on its class's instance (built with VecCap at least
// its group's size). A crash before the record's commit point drops the whole
// commit; from it on, Recover completes every group — so the commit is all or
// nothing. It is not isolated: another thread can observe one group applied
// and the next not yet.
//
// len(ops) must be at most the area's payload. The groups of different
// classes are not mutually ordered: use ops that commute across classes. A
// map's shards commute with each other and with a queue, so a window may mix
// them freely; a queue's enqueues and dequeues do not commute, so a window
// holds one of the two (the server commits its window on a switch).
func (a *Area) InvokeGrouped(tid int, ops []core.VecOp, rets []uint64, classOf func(int, core.VecOp) int) {
	if len(ops) == 0 {
		return
	}
	grps := a.group(tid, ops, classOf)
	x := &a.scratch[tid]
	gops, grets := x.ops[:len(ops)], x.rets[:len(ops)]
	// One invocation per op, in GROUP order — the order the ops are durably
	// laid out and recovery resolves them in — before the commit's first
	// durable store: a crash anywhere inside leaves exactly these pending.
	for _, g := range grps {
		if h := a.hist[g.class]; h != nil {
			for _, o := range gops[g.off : g.off+g.cnt] {
				h.Begin(tid, o.Op, o.A0, o.A1)
			}
		}
	}
	for _, s := range a.commitStores(tid, grps, gops) {
		a.r.DirectStore(s.i, s.v)
	}
	// Each group runs as one InvokeVec after the record. The instances'
	// announcement blocks are volatile: recovery re-supplies the ops from the
	// payload.
	for _, g := range grps {
		a.insts[g.class].InvokeVec(tid, gops[g.off:g.off+g.cnt], g.seq, grets[g.off:g.off+g.cnt])
	}
	a.close(tid)
	// Ends in Begin (= group) order, and only after the record closed, past
	// the last crashable point: a crash between two groups must leave EVERY
	// op pending, so the restarted recovery's Resolves meet an all-pending
	// queue instead of re-completing ops already closed.
	for _, g := range grps {
		if h := a.hist[g.class]; h != nil {
			for _, r := range grets[g.off : g.off+g.cnt] {
				h.End(tid, r)
			}
		}
	}
	for i := range ops {
		rets[i] = grets[x.pos[i]]
	}
}

// Flusher returns InvokeGrouped bound to the single class class — a vector
// is the one-group commit — in the shape of a vecbatch pipe's commit function.
func (a *Area) Flusher(class int) func(tid int, ops []core.VecOp, rets []uint64) {
	one := func(int, core.VecOp) int { return class }
	return func(tid int, ops []core.VecOp, rets []uint64) { a.InvokeGrouped(tid, ops, rets, one) }
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
		if cnt := a.counter(tid, class); (cnt+1)&1 == inst.DeactParity(tid) {
			a.r.DirectStore(tid*a.stride+class, cnt+1)
		}
	}
}

// settle resolves one group of tid's open record — ops, run on class under
// seq as one announcement — and reports its operations. Under an epoch a
// deactivate parity equal to seq's low bit cannot tell "durably served" from
// "an earlier op of that parity was", so the group is left untouched and
// reported uncertain.
func (a *Area) settle(tid, class int, seq uint64, ops []core.VecOp) []Resolved {
	a.rollSeq(tid, class, seq)
	inst := a.insts[class]
	out := make([]Resolved, len(ops))
	for i, o := range ops {
		out[i] = Resolved{Class: class, Op: o.Op, A0: o.A0, A1: o.A1}
	}
	if a.epoch != nil && inst.DeactParity(tid) == seq&1 {
		return out
	}
	rets := make([]uint64, len(ops))
	inst.RecoverVec(tid, ops, seq, rets)
	for i, r := range rets {
		out[i].Result, out[i].Certain = r, true
	}
	return out
}

// Recover resolves tid's interrupted commit after a crash — re-runs each
// operation or fetches its response, never both — and returns what it
// settled: nothing when tid had nothing in flight, one entry for a scalar
// operation, one per operation (in group order) for a multi-op commit, whose
// operations come from the record's payload. Call it for every thread after
// re-opening, before new operations.
//
// Each group is settled on its own (settle): applied groups only fetch their
// responses, since RecoverVec is parity-gated. Under an epoch a group whose
// parity shows it provably did not commit is re-performed, and the epoch is
// closed BEFORE the record: a crash inside the close retries with the record
// still open and the re-performance rolled back, so no resolution is lost or
// doubled.
func (a *Area) Recover(tid int) []Resolved {
	b := tid * a.stride
	rec := b + a.k
	op := a.r.Load(rec + recOp)
	if op == 0 || a.r.Load(rec+recDone) == 1 {
		a.realign(tid)
		return nil
	}
	var out []Resolved
	if op&vecMark == 0 {
		one := []core.VecOp{{Op: op, A0: a.r.Load(rec + recA0), A1: a.r.Load(rec + recA1)}}
		out = a.settle(tid, int(a.r.Load(rec+recClass)), a.r.Load(rec+recSeq), one)
	} else {
		p := b + a.payOff
		for gi := 0; gi < int(op&^vecMark); gi++ {
			gb := b + a.grpOff + 3*gi
			ops := make([]core.VecOp, a.r.Load(gb+2))
			for i := range ops {
				ops[i] = core.VecOp{Op: a.r.Load(p), A0: a.r.Load(p + 1), A1: a.r.Load(p + 2)}
				p += 3
			}
			out = append(out, a.settle(tid, int(a.r.Load(gb)), a.r.Load(gb+1), ops)...)
		}
	}
	if a.epoch != nil {
		for _, r := range out {
			if r.Certain { // something was re-performed: make it durable first
				a.epoch.CloseNow()
				break
			}
		}
	}
	a.close(tid)
	// Realignment writes durable words and must not run against mid-crash
	// state, so it comes after the last point a nested crash can unwind from.
	a.realign(tid)
	// Every recovered operation reaches its class's history from here, once.
	// An uncertain one stays pending — applied or lost — and so does every
	// operation after it, whose Resolve would otherwise complete it.
	for i := 0; i < len(out) && out[i].Certain; i++ {
		if h := a.hist[out[i].Class]; h != nil {
			h.Resolve(tid, out[i].Result)
		}
	}
	return out
}
