package core

import (
	"sync/atomic"

	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/prim"
)

// PBComb is the paper's blocking recoverable combining protocol
// (Algorithm 1). It keeps two StateRec records in NVMM and a one-word
// persistent index MIndex selecting the current one; the announcement array,
// the lock, and LockVal live in volatile memory (persistence principle 1).
// Announcing, gathering and serving are the shared skeleton's (comb); this
// file is what the lock and MIndex add.
//
// A PBComb instance is identified by its name: re-constructing it on the
// same heap after a simulated crash re-opens the persistent regions and
// resets all volatile parts, exactly like a process restart on real NVMM.
type PBComb struct {
	comb // state holds 2 records; idx word 0 is MIndex

	lock    atomic.Uint64
	lockVal atomic.Uint64

	// Coherence hot spots (see pmem.HotWord): the lock, the record-index
	// word, and the two records.
	hotLock pmem.HotWord
	hotMeta pmem.HotWord
	hotRec  [2]pmem.HotWord

	// Sparse state persistence (comb.sparse, a wide record whose object marks
	// its stores or whose per-thread tail is most of it): the combiner persists only the record lines dirtied during the
	// current and previous rounds (state lines and the served threads'
	// ReturnVal/Deactivate lines) instead of the whole record. Sound because
	// a record's durable copy is exactly two rounds stale, so the two most
	// recent rounds' dirty sets cover every difference. This lifts the
	// paper's small-object guidance for large states (e.g. hash-table shards)
	// and for records widened by per-thread ReturnVal blocks.
	dirtyCur  *dirtySet
	dirtyPrev *dirtySet
	booted    [2]bool // record has been fully persisted at least once
}

// NewPBComb creates (or, after a crash, re-opens) a PBComb instance for n
// threads driving the given sequential object.
func NewPBComb(h *pmem.Heap, name string, n int, obj Object) *PBComb {
	return NewPBCombWith(h, name, n, obj, CombOpts{})
}

// NewPBCombWith creates (or re-opens) a PBComb instance with explicit
// options; the other constructors are thin wrappers. The options shape the
// persistent layout, so re-opening after a crash must use the same options.
func NewPBCombWith(h *pmem.Heap, name string, n int, obj Object, o CombOpts) *PBComb {
	c := &PBComb{}
	c.init(c, h, name, "pbcomb", "pbcomb.meta", n, obj, o, 0, 2)
	if c.sparse {
		c.dirtyCur = newDirtySet(c.recWords)
		c.dirtyPrev = newDirtySet(c.recWords)
		// The record MIndex pointed to at open time was fully persisted (at
		// init or by the pfence of the round that installed it); the other
		// record's durable contents are arbitrary and must be persisted in
		// full the first time it is used.
		c.booted[c.idx.Load(0)&1] = true
	}
	c.boot(0)
	return c
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
	myActivate := ctlActivate(c.ann[c.annBase(tid)].Load())
	for {
		// Leave without ever acquiring the lock if a combiner has already
		// served the announced request. The paper's listing performs this
		// check after observing one lock transition (lines 16-18); checking
		// it on entry as well preserves the same guarantee — before
		// returning we wait out the combiner currently holding the lock, so
		// the round that served us has completed its psync.
		if off := c.cur() + c.deactOff + tid; c.state.Load(off) == myActivate {
			c.onStateRead(tid, off)
			if lv := c.lock.Load(); lv%2 == 1 {
				c.awaitLock(lv)
			}
			return c.helped(tid, tw)
		}
		lval := c.lock.Load()
		c.onLockRead(tid)
		if lval%2 == 0 {
			c.h.Touch(&c.hotLock, tid)
			if c.lock.CompareAndSwap(lval, lval+1) {
				c.onLockWrite(tid)
				return c.combine(tid)
			}
			c.onLockFail(tid)
			lval++
		}
		// Reaching here means another thread holds the lock (or beat our CAS):
		// a contention signal for the adaptive announce backoff.
		c.noteContention(tid)
		c.awaitLock(lval)
		c.onLockRead(tid)
		if off := c.cur() + c.deactOff + tid; c.state.Load(off) == myActivate {
			c.onStateRead(tid, off)
			// Our request was served. If it was served by a combiner later
			// than the one we waited on, that combiner may not have
			// completed its psync yet: wait for it to release the lock.
			if c.lockVal.Load() != lval {
				c.awaitLock(lval + 2)
			}
			return c.helped(tid, tw)
		}
	}
}

// awaitLock waits while the lock word still reads lv, in Spin steps. If the
// combiner being waited for died in a simulated crash, unwind like every
// other thread.
func (c *PBComb) awaitLock(lv uint64) {
	w := prim.NewSpin(c.spin)
	for c.lock.Load() == lv {
		if c.h.Crashed() {
			panic(pmem.CrashError{})
		}
		w.Wait()
	}
}

// helped completes an operation some other combiner served and returns its
// response. Being served by another thread's combining round is itself the
// contention signal the announce backoff keys on.
func (c *PBComb) helped(tid int, tw int64) uint64 {
	c.onHelped(tid)
	c.noteContention(tid)
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseWaitServe, tw, obs.Now(), 0)
	}
	return c.state.Load(c.cur() + c.retSlot(tid))
}

// combine runs the combiner role: copy the current record, serve every
// active valid request on the copy, persist the copy, flip MIndex, persist
// it, and release the lock.
func (c *PBComb) combine(tid int) uint64 {
	var tc int64
	if c.spans != nil {
		tc = obs.Now()
	}
	ctx := c.ctxs[tid]
	mi := int(c.idx.Load(0))
	ind := 1 - mi
	src, dst := c.recOff(mi), c.recOff(ind)
	c.h.Touch(&c.hotRec[mi], tid)
	c.h.Touch(&c.hotRec[ind], tid)
	// Sparse mode copies only the delta: the destination record's volatile
	// content is exactly one round stale (the last time it was dst, the copy
	// made it equal to the then-current record, then the round's writes were
	// applied to it — i.e. it ended that round equal to the current state),
	// so src differs from dst only in the lines the previous round dirtied,
	// plus the ReturnVal/Deactivate tail. Un-booted records (arbitrary
	// content from before this instance opened) get one full copy, mirroring
	// persistSparse's boot handling.
	copied := c.recWords
	if c.sparse && c.booted[ind] {
		copied = c.copyDelta(dst, src)
	} else {
		c.state.CopyWords(dst, c.state, src, c.recWords)
	}
	c.onRecCopy(tid, mi, ind)
	c.onCopied(tid, copied)

	batch, anns := c.gather(tid, dst)
	c.wonRound(tid, len(batch), anns) // rounds are serialized by the lock: this one will install
	env := c.env(tid, dst, c.dirtyCur)
	c.serve(tid, env, batch)

	// Span boundary: combine covers copy+gather+serve, persist covers the
	// write-backs through the psync (the round hook included — it is
	// durability work), with the pwb counter delta as attribution.
	var tp int64
	var pwb0 uint64
	if c.spans != nil {
		tp = obs.Now()
		c.spans.Record(tid, obs.PhaseCombine, tc, tp, uint64(len(batch)))
		pwb0 = ctx.Pwbs()
	}
	if c.sparse {
		c.persistSparse(ctx, dst, ind)
	} else {
		ctx.PWB(c.state, dst, c.recWords)
	}
	ctx.PFence()
	c.lockVal.Store(c.lock.Load())
	c.h.Touch(&c.hotMeta, tid)
	c.idx.Store(0, uint64(ind))
	c.onStateWrite(tid, -1) // MIndex switch
	ctx.PWBLine(c.idx, 0)
	// Readers may follow MIndex only once it is durable, and every thread this
	// round served leaves through the lock release below.
	c.psyncPublish(tid, ind, c.durVer()+1)
	if c.commit != nil {
		c.commit(env, true)
	}
	if c.spans != nil {
		c.spans.Record(tid, obs.PhasePersist, tp, obs.Now(), ctx.Pwbs()-pwb0)
	}
	c.lock.Add(1)
	c.onLockWrite(tid)

	return c.state.Load(c.cur() + c.retSlot(tid))
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
	if !c.booted[ind] {
		ctx.PWB(c.state, dst, c.recWords)
		c.booted[ind] = true
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
