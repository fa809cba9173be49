package core

import (
	"sync/atomic"

	"pcomb/internal/memmodel"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/prim"
)

// PBComb is the paper's blocking recoverable combining protocol
// (Algorithm 1). It keeps two StateRec records in NVMM and a one-word
// persistent index MIndex selecting the current one; the announcement array,
// the lock, and LockVal live in volatile memory (persistence principle 1).
//
// A PBComb instance is identified by its name: re-constructing it on the
// same heap after a simulated crash re-opens the persistent regions and
// resets all volatile parts, exactly like a process restart on real NVMM.
type PBComb struct {
	h    *pmem.Heap
	name string
	n    int
	obj  Object
	bobj BatchObject // non-nil if obj implements BatchObject

	recWords int // words per StateRec (line-aligned)
	stWords  int
	retOff   int // offset of ReturnVal within a record (vcap words per thread)
	deactOff int // offset of Deactivate within a record

	state *pmem.Region // 2 records
	meta  *pmem.Region // word 0: MIndex; word LineWords: init magic

	// Vectorized announcements (CombOpts.VecCap > 1): the argument ring. The
	// ReturnVal block widens to vcap words per thread so every op of a served
	// vector has a persistent response slot.
	vecRing

	// Delegation (CombOpts.Delegate): ring entries widen to four words, the
	// fourth naming the originating thread and parity (see DelOp). delTogs is
	// per-thread combiner scratch for the announcer toggles a round owes to
	// delegating announcements, packed q<<1|act.
	delegate bool
	delTogs  [][]uint64

	req     []reqSlot
	lock    atomic.Uint64
	lockVal atomic.Uint64

	scratch [][]Request
	envs    []Env // per-thread combiner environment, reused from round to round

	// Adaptive announce backoff (see Invoke): per-thread bounded exponential
	// waits between announcing and competing for the lock, tuned by the
	// observed combining degree so announcements accumulate into larger
	// batches exactly when rounds still have room to grow.
	adaptive bool
	annYld   []prim.PaddedUint64 // per-thread announce-wait length, in yields (own thread only)
	annHot   []prim.PaddedUint64 // per-thread contention flag (own thread only)
	degEMA   atomic.Uint64       // combining-degree EMA, fixed-point <<emaShift

	// Coherence hot spots (see pmem.HotWord): the lock, the record-index
	// word, the two records, and the announcement slots.
	hotLock pmem.HotWord
	hotMeta pmem.HotWord
	hotRec  [2]pmem.HotWord
	hotReq  []pmem.HotWord

	// PostSync, when non-nil, runs on the combiner after the psync that
	// makes its round durable and before the lock is released. PBqueue uses
	// it to advance oldTail (Section 5).
	PostSync func(env *Env)

	// sparse selects sparse state persistence: the combiner persists only
	// the state lines dirtied during the current and previous rounds (plus
	// the ReturnVal/Deactivate tail) instead of the whole record. Sound
	// because a record's durable copy is exactly two rounds stale, so the
	// two most recent rounds' dirty sets cover every difference. Objects
	// must report their writes via Env.MarkDirty. This lifts the paper's
	// small-object guidance for large states (e.g. hash-table shards).
	sparse    bool
	dirtyCur  *dirtySet
	dirtyPrev *dirtySet
	booted    [2]bool // record has been fully persisted at least once

	// durableOnly selects the durably-linearizable-only variant (Section 3):
	// only the object state is persisted — neither ReturnVal nor Deactivate —
	// so combiners write back fewer cache lines, and the protocol has null
	// recovery (re-opening the instance *is* the recovery; Recover is
	// unavailable and per-thread sequence numbers restart at 1).
	durableOnly bool

	track *memmodel.Hooks
	cstat CombTracker
	vstat VecTracker
}

// NewPBComb creates (or, after a crash, re-opens) a PBComb instance for n
// threads driving the given sequential object.
func NewPBComb(h *pmem.Heap, name string, n int, obj Object) *PBComb {
	return NewPBCombWith(h, name, n, obj, CombOpts{})
}

// NewPBCombSparse creates a PBComb instance with sparse state persistence:
// combiners persist only the record lines written during the last two rounds
// instead of the whole record. The object must call Env.MarkDirty for every
// state word it stores. Useful for large states, where whole-record persists
// dominate (the size limitation Section 3 discusses).
func NewPBCombSparse(h *pmem.Heap, name string, n int, obj Object) *PBComb {
	return NewPBCombWith(h, name, n, obj, CombOpts{Sparse: true})
}

// NewPBCombDurable creates the durably-linearizable-only variant: it
// persists only the object state (fewer lines per round) and has null
// recovery — after a crash, re-opening the instance restores the state of
// some prefix of completed operations, but responses of interrupted
// operations are not recoverable and Recover panics.
func NewPBCombDurable(h *pmem.Heap, name string, n int, obj Object) *PBComb {
	return NewPBCombWith(h, name, n, obj, CombOpts{DurableOnly: true})
}

// NewPBCombWith creates (or re-opens) a PBComb instance with explicit
// options; the other constructors are thin wrappers. The options shape the
// persistent layout, so re-opening after a crash must use the same options.
func NewPBCombWith(h *pmem.Heap, name string, n int, obj Object, o CombOpts) *PBComb {
	if n <= 0 {
		panic("core: need at least one thread")
	}
	c := &PBComb{h: h, name: name, n: n, obj: obj, stWords: obj.StateWords(), durableOnly: o.DurableOnly}
	c.bobj, _ = obj.(BatchObject)
	c.vcap = o.VecCap
	if c.vcap < 1 {
		c.vcap = 1
	}
	c.entWords = 3
	if o.Delegate {
		if c.vcap < 2 {
			panic("core: CombOpts.Delegate requires VecCap > 1")
		}
		c.delegate = true
		c.entWords = 4
	}
	c.retOff = c.stWords
	c.deactOff = c.stWords + n*c.vcap
	c.recWords = pmem.RoundUpLine(c.deactOff + n)

	c.state = h.AllocOrGet(name+"/pbcomb.state", 2*c.recWords)
	c.meta = h.AllocOrGet(name+"/pbcomb.meta", 2*pmem.LineWords)
	if c.vcap > 1 {
		c.vecStride = pmem.RoundUpLine(c.entWords * c.vcap)
		c.vec = h.AllocOrGet(name+"/pbcomb.vec", n*c.vecStride)
	}

	c.req = make([]reqSlot, n)
	c.hotReq = make([]pmem.HotWord, n)
	c.ctxs = make([]*pmem.Ctx, n)
	c.scratch = make([][]Request, n)
	c.envs = make([]Env, n)
	c.adaptive = true
	c.annYld = make([]prim.PaddedUint64, n)
	c.annHot = make([]prim.PaddedUint64, n)
	for i := range c.ctxs {
		c.ctxs[i] = h.NewCtx()
		c.scratch[i] = make([]Request, 0, n*c.vcap)
		c.annYld[i].V.Store(annYieldMin)
	}
	if c.delegate {
		c.delTogs = make([][]uint64, n)
		for i := range c.delTogs {
			c.delTogs[i] = make([]uint64, 0, n)
		}
	}
	if o.Sparse {
		c.sparse = true
		c.dirtyCur = newDirtySet(c.recWords)
		c.dirtyPrev = newDirtySet(c.recWords)
		// The record MIndex pointed to at open time was fully persisted (at
		// init or by the pfence of the round that installed it); the other
		// record's durable contents are arbitrary and must be persisted in
		// full the first time it is used.
		c.booted[c.meta.Load(0)&1] = true
	}

	if c.meta.Load(pmem.LineWords) != initMagic {
		obj.Init(c.recState(0))
		ctx := c.ctxs[0]
		ctx.PWB(c.state, 0, c.recWords)
		ctx.PFence()
		c.meta.Store(0, 0) // MIndex
		c.meta.Store(pmem.LineWords, initMagic)
		ctx.PWB(c.meta, 0, 2*pmem.LineWords)
		ctx.PSync()
	}
	return c
}

// SetTracker installs shared-memory access instrumentation (Table 1).
func (c *PBComb) SetTracker(t *memmodel.Tracker) {
	if t == nil {
		c.track = nil
		return
	}
	c.track = memmodel.NewHooks(t, c.n, c.stWords, c.recWords, len(c.req))
}

func (c *PBComb) recOff(i uint64) int { return int(i) * c.recWords }

// retSlot returns the record-relative offset of thread q's first ReturnVal
// word; a vector's i-th response lands at retSlot(q)+i.
func (c *PBComb) retSlot(q int) int { return c.retOff + q*c.vcap }

func (c *PBComb) recState(i uint64) State {
	return State{r: c.state, off: c.recOff(i), n: c.stWords}
}

// Name returns the instance's persistent name.
func (c *PBComb) Name() string { return c.name }

// Threads returns the number of threads the instance was created for.
func (c *PBComb) Threads() int { return c.n }

// Ctx returns thread tid's persistence context (for objects that allocate
// outside the combining record and for harness accounting).
func (c *PBComb) Ctx(tid int) *pmem.Ctx { return c.ctxs[tid] }

// AttachEpoch switches the instance to epoch-mode relaxed durability: every
// per-thread context defers its persistence instructions into e's buffer,
// to be replayed by e's closer. Call once after construction (boot-time
// persistence stays strict) and before concurrent use.
func (c *PBComb) AttachEpoch(e *pmem.Epoch) {
	for _, ctx := range c.ctxs {
		ctx.SetEpochBuf(e.Buf())
	}
}

// DeactParity returns thread tid's deactivate bit in the currently valid
// state record. After a crash's rollback to durable state this is the
// durable parity, which epoch-mode recovery compares against the in-flight
// sequence number to decide whether the operation certainly did not commit.
func (c *PBComb) DeactParity(tid int) uint64 {
	mi := c.meta.Load(0)
	return c.state.Load(c.recOff(mi) + c.deactOff + tid)
}

// CurrentState returns a read-only view of the currently valid object state.
// It is safe only when no operations are in flight (harness/verification use).
func (c *PBComb) CurrentState() State {
	return c.recState(c.meta.Load(0))
}

// Announce-backoff tuning: the wait is measured in scheduler yields (each
// yield is a chance for another thread to announce), bounded exponential in
// [annYieldMin, 4*min(n, annDegreeCap)]; the combining-degree EMA uses
// emaShift bits of fixed point and an exponential window of 1/emaAlpha;
// degrees beyond annDegreeCap are treated as "batches are already large"
// regardless of n.
const (
	annYieldMin  = 1
	emaShift     = 8
	emaAlpha     = 8
	annDegreeCap = 64
)

// Invoke announces and executes one operation for thread tid. The caller
// supplies a per-thread sequence number that starts at 1 and increases by 1
// with every invocation; its low bit drives the activate/deactivate
// detectability scheme, as in the paper's system model.
func (c *PBComb) Invoke(tid int, op, a0, a1, seq uint64) uint64 {
	var t0, t1 int64
	if c.spans != nil {
		t0 = obs.Now()
	}
	c.req[tid].announce(op, a0, a1, seq&1)
	c.onReqWrite(tid, tid)
	if c.spans != nil {
		t1 = obs.Now()
		c.spans.Record(tid, obs.PhasePublish, t0, t1, 1)
	}
	// Wait between announcing and competing for the lock: this is what lets
	// announcements accumulate into large combining batches (cf. the paper's
	// backoff discussion). The wait is adaptive: it grows only while other
	// threads are demonstrably competing AND observed rounds are still small
	// relative to the thread count, and shrinks back otherwise, so an
	// uncontended instance degenerates to the old single yield.
	if c.adaptive && c.n > 1 {
		c.announceWait(tid, seq&1)
	} else {
		prim.Pause()
	}
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseBackoff, t1, obs.Now(), 0)
	}
	ret := c.perform(tid)
	c.clearAnnounce(tid)
	return ret
}

// SetAdaptiveBackoff enables or disables the adaptive announce backoff
// (enabled by default). Disabled, Invoke falls back to a bare yield between
// announcing and competing, the pre-backoff behavior — the ablation the
// combining-degree sweep in EXPERIMENTS.md compares against.
func (c *PBComb) SetAdaptiveBackoff(on bool) { c.adaptive = on }

// announceWait adapts and applies thread tid's announce backoff. The wait is
// a bounded number of scheduler yields — each yield lets another announcing
// thread run, which is what actually grows the next combiner's batch — and
// exits early the moment a combiner deactivates tid's request, so long waits
// under contention cost almost no extra latency. Growth requires both a
// contention signal (tid saw the lock held or lost a CAS since its last
// wait) and headroom in the combining degree: once rounds already serve
// about half the useful maximum, longer waits only add latency.
func (c *PBComb) announceWait(tid int, myActivate uint64) {
	target := uint64(c.n)
	if target > annDegreeCap {
		target = annDegreeCap
	}
	w := c.annYld[tid].V.Load()
	if c.annHot[tid].V.Load() != 0 && c.degEMA.Load() < (target<<emaShift)*7/8 {
		if w*2 <= 4*target {
			w *= 2
		}
	} else if w/2 >= annYieldMin {
		w /= 2
	}
	c.annYld[tid].V.Store(w)
	c.annHot[tid].V.Store(0)
	for i := uint64(0); i < w; i++ {
		prim.Pause()
		mi := c.meta.Load(0)
		if c.state.Load(c.recOff(mi)+c.deactOff+tid) == myActivate {
			return // served while waiting; perform's entry check completes it
		}
	}
}

// noteContention records that tid observed lock competition (held lock or a
// failed CAS); consumed by the next announceWait. tid-local, so a plain
// store suffices; the padding avoids false sharing with neighbors.
func (c *PBComb) noteContention(tid int) {
	if c.adaptive {
		c.annHot[tid].V.Store(1)
	}
}

// Recover is the recovery function for thread tid's interrupted operation:
// the system re-invokes it after a crash with the same arguments and seq as
// the original invocation.
func (c *PBComb) Recover(tid int, op, a0, a1, seq uint64) uint64 {
	if c.durableOnly {
		panic("core: the durably-linearizable-only variant has null recovery (no Recover)")
	}
	if recoverSabotage.Load() {
		// Mutation-test bug: skip the republish and hand back the (possibly
		// stale) return slot unconditionally.
		mi := c.meta.Load(0)
		return c.state.Load(c.recOff(mi) + c.retSlot(tid))
	}
	// Re-announce with the original toggle so a combiner neither re-executes
	// a request that took effect nor skips one that did not.
	c.req[tid].announce(op, a0, a1, seq&1)
	mi := c.meta.Load(0)
	if c.state.Load(c.recOff(mi)+c.deactOff+tid) != seq&1 {
		ret := c.perform(tid)
		c.clearAnnounce(tid)
		return ret
	}
	c.clearAnnounce(tid)
	return c.state.Load(c.recOff(mi) + c.retSlot(tid))
}

// clearAnnounce retires tid's completed announcement from its slot (delegate
// instances only). With delegation a thread's deactivate bit can flip without
// the thread ever re-announcing, which would make a completed-but-still-valid
// slot look active again to a later round and re-execute it; retiring the
// control word closes that resurrection window. Volatile-only and race-free:
// combining rounds are serialized by the lock, so any round that gathered
// this announcement has completed before the owning thread returned.
func (c *PBComb) clearAnnounce(tid int) {
	if c.delegate {
		c.req[tid].ctl.Store(0)
	}
}

// perform is the paper's PerformReqest: acquire the lock and combine, or
// wait until a combiner has served our request.
func (c *PBComb) perform(tid int) uint64 {
	// tw anchors the wait-serve span: everything between entering perform and
	// returning a combiner-served response is time spent waiting on others.
	var tw int64
	if c.spans != nil {
		tw = obs.Now()
	}
	myActivate := ctlActivate(c.req[tid].ctl.Load())
	for {
		// Leave without ever acquiring the lock if a combiner has already
		// served the announced request. The paper's listing performs this
		// check after observing one lock transition (lines 16-18); checking
		// it on entry as well preserves the same guarantee — before
		// returning we wait out the combiner currently holding the lock, so
		// the round that served us has completed its psync.
		mi := c.meta.Load(0)
		if c.state.Load(c.recOff(mi)+c.deactOff+tid) == myActivate {
			c.onStateRead(tid, c.recOff(mi)+c.deactOff+tid)
			if lv := c.lock.Load(); lv%2 == 1 {
				for c.lock.Load() == lv {
					if c.h.Crashed() {
						panic(pmem.CrashError{})
					}
					prim.Pause()
				}
			}
			mi = c.meta.Load(0)
			c.onHelped(tid)
			// Being served by another thread's combining round is itself the
			// contention signal the announce backoff keys on.
			c.noteContention(tid)
			if c.spans != nil {
				c.spans.Record(tid, obs.PhaseWaitServe, tw, obs.Now(), 0)
			}
			return c.state.Load(c.recOff(mi) + c.retSlot(tid))
		}
		lval := c.lock.Load()
		c.onLockRead(tid)
		if lval%2 == 0 {
			c.h.Touch(&c.hotLock, tid)
			if c.lock.CompareAndSwap(lval, lval+1) {
				c.onLockWrite(tid)
				return c.combine(tid, lval+1)
			}
			c.onLockFail(tid)
			lval++
		}
		// Reaching here means another thread holds the lock (or beat our CAS):
		// a contention signal for the adaptive announce backoff.
		c.noteContention(tid)
		for c.lock.Load() == lval {
			if c.h.Crashed() {
				// The combiner we are waiting for died in a simulated
				// crash; unwind like every other thread.
				panic(pmem.CrashError{})
			}
			prim.Pause()
		}
		c.onLockRead(tid)
		mi = c.meta.Load(0)
		if c.state.Load(c.recOff(mi)+c.deactOff+tid) == myActivate {
			c.onStateRead(tid, c.recOff(mi)+c.deactOff+tid)
			// Our request was served. If it was served by a combiner later
			// than the one we waited on, that combiner may not have
			// completed its psync yet: wait for it to release the lock.
			if c.lockVal.Load() != lval {
				for c.lock.Load() == lval+2 {
					if c.h.Crashed() {
						panic(pmem.CrashError{})
					}
					prim.Pause()
				}
			}
			mi = c.meta.Load(0)
			c.onHelped(tid)
			c.noteContention(tid)
			if c.spans != nil {
				c.spans.Record(tid, obs.PhaseWaitServe, tw, obs.Now(), 0)
			}
			return c.state.Load(c.recOff(mi) + c.retSlot(tid))
		}
	}
}

// combine runs the combiner role: copy the current record, serve every
// active valid request on the copy, persist the copy, flip MIndex, persist
// it, and release the lock.
func (c *PBComb) combine(tid int, lockHeld uint64) uint64 {
	var tc int64
	if c.spans != nil {
		tc = obs.Now()
	}
	ctx := c.ctxs[tid]
	mi := c.meta.Load(0)
	ind := 1 - mi
	src, dst := c.recOff(mi), c.recOff(ind)
	c.h.Touch(&c.hotRec[mi&1], tid)
	c.h.Touch(&c.hotRec[ind&1], tid)
	// Sparse mode copies only the delta: the destination record's volatile
	// content is exactly one round stale (the last time it was dst, the copy
	// made it equal to the then-current record, then the round's writes were
	// applied to it — i.e. it ended that round equal to the current state),
	// so src differs from dst only in the lines the previous round dirtied,
	// plus the ReturnVal/Deactivate tail. Un-booted records (arbitrary
	// content from before this instance opened) get one full copy, mirroring
	// persistSparse's boot handling.
	copied := c.recWords
	if c.sparse && c.booted[ind&1] {
		copied = c.copyDelta(dst, src)
	} else {
		c.state.CopyWords(dst, c.state, src, c.recWords)
	}
	c.onRecCopy(tid, int(mi), int(ind))
	c.onCopied(tid, copied)

	batch := c.scratch[tid][:0]
	var togs []uint64
	if c.delegate {
		togs = c.delTogs[tid][:0]
	}
	anns := 0
	for q := 0; q < c.n; q++ {
		ctl := c.req[q].ctl.Load()
		c.onReqRead(tid, q)
		if !ctlValid(ctl) {
			continue
		}
		act := ctlActivate(ctl)
		if act == c.state.Load(dst+c.deactOff+q) {
			continue
		}
		anns++
		c.h.Touch(&c.hotReq[q], tid)
		if cnt := ctlCount(ctl); cnt > 0 {
			// Vectorized announcement: the arguments live in q's persistent
			// ring (already durable — q fenced them before the slot toggle),
			// one Request per entry, served in ring order so q's program
			// order is preserved within the round.
			vb := c.vecBase(q)
			if c.delegate {
				// Each entry carries its originator in the meta word:
				// responses and deactivate toggles are credited to the
				// originator, and q's own toggle is deferred to the side list
				// so a completed delegating announcement never clobbers an
				// originator's response slot.
				start := len(batch)
				for i := 0; i < cnt; i++ {
					ot, par := unpackDelMeta(c.vec.Load(vb + 4*i + 3))
					if ot < 0 || ot >= c.n {
						continue // torn meta from a doomed republication
					}
					if par == c.state.Load(dst+c.deactOff+ot) {
						continue // originator already served (recovery replay)
					}
					vi := 0
					for j := start; j < len(batch); j++ {
						if batch[j].Tid == uint64(ot) {
							vi++
						}
					}
					batch = append(batch, Request{
						Tid: uint64(ot),
						Op:  c.vec.Load(vb + 4*i),
						A0:  c.vec.Load(vb + 4*i + 1),
						A1:  c.vec.Load(vb + 4*i + 2),
						act: par,
						vi:  vi,
					})
				}
				togs = append(togs, uint64(q)<<1|act)
			} else {
				for i := 0; i < cnt; i++ {
					batch = append(batch, Request{
						Tid: uint64(q),
						Op:  c.vec.Load(vb + 3*i),
						A0:  c.vec.Load(vb + 3*i + 1),
						A1:  c.vec.Load(vb + 3*i + 2),
						act: act,
						vi:  i,
					})
				}
			}
		} else {
			batch = append(batch, Request{
				Tid: uint64(q),
				Op:  c.req[q].op.Load(),
				A0:  c.req[q].a0.Load(),
				A1:  c.req[q].a1.Load(),
				act: act,
			})
		}
	}
	c.scratch[tid] = batch
	if c.delegate {
		c.delTogs[tid] = togs
	}
	c.onRound(tid, len(batch))
	if c.adaptive {
		// Combining-degree EMA feeding announceWait, counted in announcements
		// (slot toggles gathered), not operations: a vectorized announcement
		// carries up to VecCap ops, and measuring ops would tell the backoff a
		// round of a few fat vectors is "already large" while most threads'
		// slots went unserved — exactly the piling the wait exists to create.
		// The wait's headroom target is n announcements either way. Combiners
		// are serialized by the lock, so a plain load/store pair is race-free.
		old := c.degEMA.Load()
		c.degEMA.Store(old - old/emaAlpha + (uint64(anns)<<emaShift)/emaAlpha)
	}

	env := &c.envs[tid]
	*env = Env{Ctx: ctx, State: State{r: c.state, off: dst, n: c.stWords}, Combiner: tid}
	if c.sparse {
		env.dirty = c.dirtyCur
	}
	if c.bobj != nil {
		c.bobj.ApplyBatch(env, batch)
	} else {
		for i := range batch {
			c.obj.Apply(env, &batch[i])
		}
	}
	for i := range batch {
		q := int(batch[i].Tid)
		ret := c.retSlot(q) + batch[i].vi
		c.state.Store(dst+ret, batch[i].Ret)
		c.state.Store(dst+c.deactOff+q, batch[i].act)
		if c.sparse {
			c.dirtyCur.addLine(ret / pmem.LineWords)
			c.dirtyCur.addLine((c.deactOff + q) / pmem.LineWords)
		}
		c.onStateWrite(tid, dst+ret)
	}
	// Deactivate the delegating announcers themselves: toggle only, no
	// response — their entries' responses went to the originators above.
	for _, t := range togs {
		q := int(t >> 1)
		c.state.Store(dst+c.deactOff+q, t&1)
		if c.sparse {
			c.dirtyCur.addLine((c.deactOff + q) / pmem.LineWords)
		}
		c.onStateWrite(tid, dst+c.deactOff+q)
	}

	// Span boundary: combine covers copy+gather+serve, persist covers the
	// write-backs through the psync (PostSync included — it is durability
	// work), with the pwb counter delta as attribution.
	var tp int64
	var pwb0 uint64
	if c.spans != nil {
		tp = obs.Now()
		c.spans.Record(tid, obs.PhaseCombine, tc, tp, uint64(len(batch)))
		pwb0 = ctx.Pwbs()
	}
	switch {
	case c.durableOnly:
		ctx.PWB(c.state, dst, c.stWords)
	case c.sparse:
		c.persistSparse(ctx, dst, int(ind))
	default:
		ctx.PWB(c.state, dst, c.recWords)
	}
	ctx.PFence()
	c.lockVal.Store(c.lock.Load())
	c.h.Touch(&c.hotMeta, tid)
	c.meta.Store(0, ind)
	c.onStateWrite(tid, -1) // MIndex switch
	ctx.PWBLine(c.meta, 0)
	ctx.PSync()
	if c.PostSync != nil {
		c.PostSync(env)
	}
	if c.spans != nil {
		c.spans.Record(tid, obs.PhasePersist, tp, obs.Now(), ctx.Pwbs()-pwb0)
	}
	c.lock.Add(1)
	c.onLockWrite(tid)

	mi = c.meta.Load(0)
	return c.state.Load(c.recOff(mi) + c.retSlot(tid))
}

// copyDelta brings a booted destination record up to date by copying only
// the record lines the previous round dirtied. The dirty sets span the whole
// record — combine marks the ReturnVal/Deactivate lines it writes alongside
// the object's MarkDirty calls — so the two-round staleness argument covers
// the tail too, and dst's Deactivate words are current before the combiner
// gathers its batch against them. Returns the number of words copied.
func (c *PBComb) copyDelta(dst, src int) int {
	copied := 0
	for _, l := range c.dirtyPrev.lines {
		off := l * pmem.LineWords
		c.state.CopyWords(dst+off, c.state, src+off, pmem.LineWords)
		copied += pmem.LineWords
	}
	return copied
}

// persistSparse writes back the destination record incrementally: the record
// lines dirtied in this round and the previous one (the durable copy of the
// destination record is exactly two rounds old), tail lines included via
// combine's explicit marks. A record that was never fully persisted (its
// durable bytes predate this instance) is persisted in full once.
func (c *PBComb) persistSparse(ctx *pmem.Ctx, dst, ind int) {
	if !c.booted[ind&1] {
		ctx.PWB(c.state, dst, c.recWords)
		c.booted[ind&1] = true
	} else {
		for _, l := range c.dirtyCur.lines {
			ctx.PWB(c.state, dst+l*pmem.LineWords, pmem.LineWords)
		}
		for _, l := range c.dirtyPrev.lines {
			if !c.dirtyCur.mark[l] {
				ctx.PWB(c.state, dst+l*pmem.LineWords, pmem.LineWords)
			}
		}
	}
	c.dirtyCur, c.dirtyPrev = c.dirtyPrev, c.dirtyCur
	c.dirtyCur.reset()
}
