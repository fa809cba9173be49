// Package sysarea is the system support the paper assumes for detectable
// recoverability and every structure in this repository shares: for each
// thread, a durable sequence counter per combining instance (class), one
// durable record of the commit in progress, and one volatile staging window,
// plus the single routine that resolves an interrupted commit after a crash.
// Structures that share an area (the server store's map and queue) share its
// record and window too, so one commit can span them.
//
// Stores bypass the instruction pipeline (DirectStore): this state is
// persisted by the system, not by the algorithm, and its cost is deliberately
// not charged to the algorithms — matching the paper's experimental setup,
// where seq is an input.
//
// Each class is one combining instance, and the area builds it (Build): on
// the area's protocol, with the area's payload as its vector capacity, and
// deferring into the area's epoch. A structure hands the area its objects and
// keeps what Build returns.
//
// Per-thread layout (stride words, a whole number of cache lines), for K
// classes and a payload of P operations (at least 1):
//
//	[0,K)  seq     — one sequence counter per class
//	K      head    — groups<<1 | done: the group count of the commit in
//	                 progress (0: none yet) and 1 once its responses were
//	                 delivered
//	K+1    table   — (class<<32 | cnt, seq) per participating class, min(K, P)
//	                 of them
//	…      payload — (op, a0, a1) x P, the commit's operations group by group
//
// A scalar operation's block is K+6 words: one cache line for the queue's
// two classes and for every one-class structure.
//
// Every commit fills this one record: a scalar operation is a one-group,
// one-op commit; a vector, a map's flush window and a cross-shard transaction
// carry more. A commit stores the payload and the group table first, then the
// head with done=0 (the commit point), and every participating class counter
// LAST (commitStores). Every prefix of the sequence reads correctly: before
// the head store the head still shows the previous record closed (or, on a
// fresh area, no groups) and no counter has moved, so the commit simply never
// started; from it on the record is open and complete, and Recover rolls the
// counters forward from it. A counter can therefore never run ahead of a
// record recovery cannot see — the state in which the next operation would
// draw a sequence number whose parity matches the durable deactivate bit and
// be silently dropped as "already applied". Operation codes are the Object's:
// the record gives none of them a meaning of its own.
package sysarea

import (
	"fmt"
	"slices"

	"pcomb/internal/core"
	"pcomb/internal/history"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/vecbatch"
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

// packHead is the head word of a record of groups groups, closed or not.
func packHead(groups int, done uint64) uint64 { return uint64(groups)<<1 | done }

// packGroup is a group table entry's first word.
func packGroup(class, cnt int) uint64 { return uint64(class)<<32 | uint64(cnt) }

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
	h       *pmem.Heap
	r       *pmem.Region
	n       int
	k       int
	kind    core.Kind // every class's protocol
	stride  int
	grpOff  int             // group table offset within a thread's block
	payOff  int             // payload offset within a thread's block
	payload int             // operations one commit may carry
	insts   []core.Protocol // class -> combining instance (Build)
	epoch   *pmem.Epoch     // non-nil under epoch-mode relaxed durability
	hist    []Log           // class -> optional durable-linearizability log
	scratch []scratch       // per thread
	win     *vecbatch.Pipe  // per-thread staging windows; nil unless payload > 1
	spans   *obs.SpanLog    // the window's resolve spans; nil = not traced
}

// group is one class's share of a commit: ops[off:off+cnt] of the thread's
// scratch, announced as one vector under sequence number seq.
type group struct {
	class    int
	seq      uint64
	off, cnt int
}

// scratch is one thread's commit working set, sized in New from the payload
// so that a commit allocates nothing, and padded so neighbouring threads'
// slice headers never share a cache line.
type scratch struct {
	grps     []group      // participating classes, in first-appearance order
	pos      []int        // op i's group while grouping, then its index in ops
	ops      []core.VecOp // the operations in durable order: group by group
	rets     []uint64     // their results, in the same order
	stores   []store      // the record's store sequence (commitStores)
	staged   []int        // the class of each op staged on the window
	stagedOf func(int, core.VecOp) int
	_        [40]byte
}

// New creates — or re-attaches after a crash — the system area named name
// for n threads and classes classes, each a combining instance of kind that
// Build makes. epoch is the epoch state every class defers into, nil in
// strict mode. payload is the most operations one commit may carry — the
// structure's VecCap (at least 1), and every instance's; above 1 the area
// also stages operations on a window per thread (Submit). Part of the
// persistent layout: re-attach with the same value.
func New(h *pmem.Heap, name string, n, classes int, kind core.Kind, epoch *pmem.Epoch, payload int) *Area {
	k := classes
	payload = max(payload, 1)
	grps := min(k, payload)
	a := &Area{h: h, n: n, k: k, kind: kind, grpOff: k + 1, payload: payload,
		insts: make([]core.Protocol, k), epoch: epoch, hist: make([]Log, k)}
	a.payOff = a.grpOff + 2*grps
	a.stride = pmem.RoundUpLine(a.payOff + 3*payload)
	a.r = h.AllocOrGet(name, n*a.stride)
	a.scratch = make([]scratch, n)
	for t := range a.scratch {
		staged := make([]int, payload)
		a.scratch[t] = scratch{
			grps:     make([]group, 0, grps),
			pos:      make([]int, payload),
			ops:      make([]core.VecOp, payload),
			rets:     make([]uint64, payload),
			stores:   make([]store, 0, 3*payload+3*grps+1),
			staged:   staged,
			stagedOf: func(i int, _ core.VecOp) int { return staged[i] },
		}
	}
	if payload > 1 {
		a.win = vecbatch.New(n, payload, func(tid int, ops []core.VecOp, rets []uint64) {
			var t0 int64
			if a.spans != nil {
				t0 = obs.Now()
			}
			a.InvokeGrouped(tid, ops, rets, a.scratch[tid].stagedOf)
			if a.spans != nil {
				a.spans.Record(tid, obs.PhaseResolve, t0, obs.Now(), uint64(len(ops)))
			}
		})
	}
	return a
}

// Build creates — or re-opens after a crash — class's combining instance,
// named name, over obj: on the area's protocol, for its threads, with its
// payload as the vector capacity, deferring into its epoch. The epoch is
// attached after the instance boots, so boot-time persistence stays strict.
// Build each class once, before concurrent use.
func (a *Area) Build(class int, name string, obj core.Object) core.Protocol {
	o := core.CombOpts{VecCap: a.payload}
	var inst interface {
		core.Protocol
		AttachEpoch(*pmem.Epoch)
	}
	if a.kind == core.WaitFree {
		inst = core.NewPWFCombWith(a.h, name, a.n, obj, o)
	} else {
		inst = core.NewPBCombWith(a.h, name, a.n, obj, o)
	}
	if a.epoch != nil {
		inst.AttachEpoch(a.epoch)
	}
	a.insts[class] = inst
	return inst
}

// Kind returns the protocol every class is built on.
func (a *Area) Kind() core.Kind { return a.kind }

// Payload returns the most operations one commit may carry: every class's
// vector capacity.
func (a *Area) Payload() int { return a.payload }

// Epoch returns the epoch state every class defers into (nil in strict mode).
func (a *Area) Epoch() *pmem.Epoch { return a.epoch }

// SetProbe installs p on the instances of classes, or of every class when
// none are named, and records the window's resolve spans — the time a staged
// window took to commit — to p's span log; the zero Probe uninstalls both.
// The instances share p's sinks, so stats aggregate across them and a
// thread's span track interleaves their spans. The window is the area's, so
// on an area shared by several structures it takes the last probe installed.
// Install while quiescent.
func (a *Area) SetProbe(p core.Probe, classes ...int) {
	for c, inst := range a.insts {
		if len(classes) == 0 || slices.Contains(classes, c) {
			inst.SetProbe(p)
		}
	}
	a.spans = p.Spans
}

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

// open records tid's one-op commit of op on class and returns the sequence
// number to run it with.
func (a *Area) open(tid, class int, op, a0, a1 uint64) uint64 {
	one := [1]core.VecOp{{Op: op, A0: a0, A1: a1}}
	g := [1]group{{class: class, seq: a.counter(tid, class) + 1, cnt: 1}}
	for _, s := range a.commitStores(tid, g[:], one[:]) {
		a.r.DirectStore(s.i, s.v)
	}
	return g[0].seq
}

// close marks tid's record of groups groups delivered.
func (a *Area) close(tid, groups int) { a.r.DirectStore(tid*a.stride+a.k, packHead(groups, 1)) }

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
// opens tid's record for the commit grps over ops (laid out by group): the
// payload and the group table, then the head with done=0, then every group's
// class counter (see the package comment for why this order).
func (a *Area) commitStores(tid int, grps []group, ops []core.VecOp) []store {
	b := tid * a.stride
	st := a.scratch[tid].stores[:0]
	p := b + a.payOff
	for _, o := range ops {
		st = append(st, store{p, o.Op}, store{p + 1, o.A0}, store{p + 2, o.A1})
		p += 3
	}
	for gi, g := range grps {
		gb := b + a.grpOff + 2*gi
		st = append(st, store{gb, packGroup(g.class, g.cnt)}, store{gb + 1, g.seq})
	}
	st = append(st, store{b + a.k, packHead(len(grps), 0)})
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
	a.close(tid, 1)
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
		a.close(tid, 1)
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
// holds one of the two (the queue and the server commit the window before
// staging the other).
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
	a.close(tid, len(grps))
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

// Submit stages op(a0, a1) on class in tid's window (the area must have a
// payload above 1). The window commits as one InvokeGrouped when it reaches
// the payload, on Flush, or on a Future's Wait; until then a crash loses it
// wholesale — staging trades per-op commit for per-window commit.
func (a *Area) Submit(tid, class int, op, a0, a1 uint64) vecbatch.Future {
	a.scratch[tid].staged[a.win.Pending(tid)] = class
	return a.win.Submit(tid, core.VecOp{Op: op, A0: a0, A1: a1})
}

// Flush commits tid's window (nothing to do when it is empty).
func (a *Area) Flush(tid int) { a.win.Flush(tid) }

// Pending returns the number of operations staged on tid's window.
func (a *Area) Pending(tid int) int { return a.win.Pending(tid) }

// Staged reports whether tid's window holds an operation of class.
func (a *Area) Staged(tid, class int) bool {
	return slices.Contains(a.scratch[tid].staged[:a.Pending(tid)], class)
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
// settled: nothing when tid had nothing in flight, else one entry per
// operation of the record's payload, in group order. Call it for every thread
// after re-opening, before new operations.
//
// Each group is settled on its own (settle): applied groups only fetch their
// responses, since RecoverVec is parity-gated. Under an epoch a group whose
// parity shows it provably did not commit is re-performed, and the epoch is
// closed BEFORE the record: a crash inside the close retries with the record
// still open and the re-performance rolled back, so no resolution is lost or
// doubled.
func (a *Area) Recover(tid int) []Resolved {
	b := tid * a.stride
	head := a.r.Load(b + a.k)
	ngrps := int(head >> 1)
	if ngrps == 0 || head&1 == 1 {
		a.realign(tid)
		return nil
	}
	var out []Resolved
	p := b + a.payOff
	for gi := 0; gi < ngrps; gi++ {
		gb := b + a.grpOff + 2*gi
		cg := a.r.Load(gb)
		ops := make([]core.VecOp, uint32(cg))
		for i := range ops {
			ops[i] = core.VecOp{Op: a.r.Load(p), A0: a.r.Load(p + 1), A1: a.r.Load(p + 2)}
			p += 3
		}
		out = append(out, a.settle(tid, int(cg>>32), a.r.Load(gb+1), ops)...)
	}
	if a.epoch != nil {
		for _, r := range out {
			if r.Certain { // something was re-performed: make it durable first
				a.epoch.CloseNow()
				break
			}
		}
	}
	a.close(tid, ngrps)
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
