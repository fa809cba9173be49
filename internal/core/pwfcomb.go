package core

import (
	"sync/atomic"

	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/prim"
)

// PWFComb is the paper's wait-free recoverable combining protocol
// (Algorithm 2). Every thread pretends to be the combiner: it copies the
// record pointed to by S into one of its two private StateRecs, serves all
// announced requests it sees on the copy, and tries to swing S to its copy
// with an SC. The Index vector (persisted inside each record) prevents a
// recovered thread from reusing the record S points to; the volatile Flush
// and CombRound arrays delegate the post-SC persist of S so that, in the
// common case, only one thread per combining round pays the pwb+psync
// (persistence principles 1 and 2). Announcing, gathering and serving are the
// shared skeleton's (comb); this file is what LL/SC on S adds.
type PWFComb struct {
	// state holds 2n+1 records: slots p*2, p*2+1 per thread, slot 2n the
	// initial dummy; idx word 0 is the versioned S. Combiners read the argument
	// ring only for announcements whose ctl carries a count; a stale read (the
	// owner republishing for its next vector) can only happen in a round whose
	// SC/validation is already doomed, and such a round's writes stay in the
	// loser's private buffer.
	comb
	idxOff int // record tail: Index[0..n-1], then pid
	pidOff int
	sv     pmem.Versioned // S

	flush     []prim.PaddedUint64
	combRound []uint64 // [p*n+q], accessed atomically

	// Coherence hot spots: S and the records.
	hotS   pmem.HotWord
	hotRec []pmem.HotWord

	// Sparse fills and persists (comb.sparse): a thread refreshes only the
	// state lines that changed since its private buffer last matched some S
	// version, and persists only the lines whose durable bytes may lag the
	// buffer, instead of copying and writing back the whole record on every
	// attempt.
	//
	// lineVer[l] is (a conservative upper bound on) the stamp of the S
	// version that last rewrote state line l. Combiners publish their dirty
	// lines with a CAS-max *before* their SC, so any thread that syncs to a
	// version sees at least that version's writes; losers over-publish, which
	// only costs extra refreshes.
	lineVer []atomic.Uint64
	// Per private record (2n slots; the dummy is never a destination), owner
	// thread only:
	//
	//	bufStamp[b] = 1 + stamp of the S version buffer b last matched
	//	              (0 = unknown content: never synced, or re-opened);
	//	bufDirty[b] = lines whose volatile content diverges from that version
	//	              (own writes of lost rounds, torn fills);
	//	unFenced[b] = lines whose durable content may lag the volatile buffer
	//	              (everything modified since b's last pwb+pfence).
	//
	// All three track WHOLE-RECORD lines (tail included; protocol writes to
	// ReturnVal/Deactivate/Index/pid are marked explicitly). bufDirty drives
	// the fill (copy set = lines the chain changed since bufStamp, plus
	// bufDirty); unFenced drives the persist (pwb set = unFenced merged with
	// bufDirty), which restores durable == volatile before the SC can
	// install the record.
	bufStamp []uint64
	bufDirty []*dirtySet
	unFenced []*dirtySet

	// PreServe, when non-nil, runs after a thread has validated its private
	// copy and before it serves requests on it. PWFqueue uses it to link the
	// two parts of its list (Section 5).
	PreServe func(env *Env)
	// PostSC, when non-nil, runs after every SC attempt with its outcome.
	// Data structures use it to commit side effects (node recycling) only
	// for the winning combiner.
	PostSC func(env *Env, success bool)
}

// NewPWFComb creates (or re-opens after a crash) a PWFComb instance for n
// threads driving the given sequential object.
func NewPWFComb(h *pmem.Heap, name string, n int, obj Object) *PWFComb {
	return NewPWFCombWith(h, name, n, obj, CombOpts{})
}

// NewPWFCombWith creates (or re-opens) a PWFComb instance with explicit
// options; the other constructors are thin wrappers. The options shape the
// persistent layout, so re-opening after a crash must use the same options.
func NewPWFCombWith(h *pmem.Heap, name string, n int, obj Object, o CombOpts) *PWFComb {
	c := &PWFComb{}
	c.init(c, h, name, "pwfcomb", "pwfcomb.s", n, obj, o, n+1, 2*n+1)
	c.idxOff = c.deactOff + n
	c.pidOff = c.idxOff + n
	c.sv = pmem.Versioned{R: c.idx, I: 0}

	c.hotRec = make([]pmem.HotWord, 2*n+1)
	c.flush = make([]prim.PaddedUint64, n)
	c.combRound = make([]uint64, n*n)
	c.backoffs = make([]*prim.Backoff, n)
	for i := range c.backoffs {
		c.backoffs[i] = prim.NewBackoff(16, 4096, int64(i)+1)
	}
	if c.sparse {
		// The version/dirty tracking spans the WHOLE record (recWords is
		// line-aligned), tail included: ReturnVal/Deactivate/Index/pid lines
		// change only for the threads a round actually serves, so persisting
		// the full tail every attempt would dominate wide-record workloads.
		c.lineVer = make([]atomic.Uint64, c.recWords/pmem.LineWords)
		c.bufStamp = make([]uint64, 2*n)
		c.bufDirty = make([]*dirtySet, 2*n)
		c.unFenced = make([]*dirtySet, 2*n)
		for b := range c.bufDirty {
			c.bufDirty[b] = newDirtySet(c.recWords)
			c.unFenced[b] = newDirtySet(c.recWords)
		}
	}
	c.boot(2 * n) // the dummy record
	return c
}

// ReadState copies the current object state words into buf, validating that
// S did not move during the copy (so the words form a consistent snapshot).
// Data structures built from two protocol instances (PWFqueue) use it to
// observe the other instance's state.
func (c *PWFComb) ReadState(buf []uint64) {
	if len(buf) > c.stWords {
		buf = buf[:c.stWords]
	}
	for {
		sv := c.sv.LL()
		slot, _ := prim.UnpackVersioned(sv)
		off := c.recOff(slot)
		for i := range buf {
			buf[i] = c.state.Load(off + i)
		}
		if c.sv.VL(sv) {
			return
		}
		prim.Pause()
	}
}

// perform is the paper's PerformReqest for PWFcomb.
func (c *PWFComb) perform(tid int) uint64 {
	ctx := c.ctxs[tid]
	// Span anchors: tw is the last phase boundary (perform entry, then the
	// end of each combining attempt), so the helped tail's wait-serve span
	// never overlaps an attempt's combine/persist spans; ta is the current
	// attempt's start.
	var tw, ta int64
	if c.spans != nil {
		tw = obs.Now()
	}
	myActivate := ctlActivate(c.req[tid].ctl.Load())
	served := c.recWord(c.deactOff+tid) == myActivate
	for l := 0; l < 2 && !served; l++ {
		if c.spans != nil {
			ta = obs.Now()
		}
		sv := c.sv.LL()
		slot, stamp := prim.UnpackVersioned(sv)
		c.h.Touch(&c.hotS, tid)
		c.h.Touch(&c.hotRec[slot], tid)
		src := c.recOff(slot)
		ind := c.state.Load(src + c.idxOff + tid)
		my := tid*2 + int(ind&1)
		dst := c.recOff(my)

		copied := c.recWords
		if c.sparse {
			copied = c.sparseFill(my, dst, src, stamp)
		} else {
			c.state.CopyWords(dst, c.state, src, c.recWords)
		}
		c.onRecCopy(tid, slot, my)
		c.onCopied(tid, copied)
		srcPid := int(c.state.Load(dst+c.pidOff) % uint64(c.n))
		c.state.Store(dst+c.pidOff, uint64(tid))

		lval := c.flush[srcPid].V.Load()
		if lval%2 == 0 {
			lval++
		} else {
			lval += 2
		}
		if !c.sv.VL(sv) {
			tw = c.lostRound(tid, nil, obs.PhaseCombine, ta, 0)
			continue
		}

		var dirty *dirtySet
		if c.sparse {
			// The validated fill proved the buffer now matches version
			// `stamp` exactly: record the sync and clear the divergence set,
			// which from here on collects only this round's own writes (via
			// env.MarkDirty and serve's tail marks). unFenced is NOT cleared
			// — only a pfence does that. The pid store above already diverged
			// the buffer from the synced version, so its line goes straight
			// back in.
			dirty = c.bufDirty[my]
			c.bufStamp[my] = stamp + 1
			dirty.reset()
			dirty.addLine(c.pidOff / pmem.LineWords)
		}
		env := c.env(tid, dst, dirty)
		if c.PreServe != nil {
			c.PreServe(env)
		}

		batch, togs, anns := c.gather(tid, dst)
		c.serve(tid, env, batch, togs)
		for i := range batch {
			atomic.StoreUint64(&c.combRound[tid*c.n+int(batch[i].Tid)], lval)
		}
		for _, t := range togs {
			atomic.StoreUint64(&c.combRound[tid*c.n+int(t>>1)], lval)
		}

		if !c.sv.VL(sv) {
			// The validation after serving failed: this round is discarded
			// exactly like a failed SC, so side effects must roll back too
			// (a missing rollback here leaks every node the batch allocated).
			tw = c.lostRound(tid, env, obs.PhaseCombine, ta, uint64(len(batch)))
		} else {
			c.state.Store(dst+c.idxOff+tid, 1-(ind&1))
			// Span boundary: combine covered copy+gather+serve; persist covers
			// the write-backs through the SC and (on a win) the psync of S,
			// with the pwb counter delta as attribution.
			var tp int64
			var pwb0 uint64
			if c.spans != nil {
				tp = obs.Now()
				c.spans.Record(tid, obs.PhaseCombine, ta, tp, uint64(len(batch)))
				pwb0 = ctx.Pwbs()
			}
			if c.sparse {
				dirty.addLine((c.idxOff + tid) / pmem.LineWords)
				// Publish this round's dirty lines before the SC so any
				// thread that later syncs to version stamp+1 refreshes them;
				// if the SC loses, the publication merely over-approximates.
				c.publishLines(stamp+1, dirty.lines)
				c.sparsePWB(ctx, my, dst)
			} else {
				ctx.PWB(c.state, dst, c.recWords)
			}
			ctx.PFence()
			if c.sparse {
				// The fence made every pending buffer line durable:
				// durable == volatile again for the whole record.
				c.unFenced[my].reset()
			}
			c.flush[tid].V.Store(lval)
			c.h.Touch(&c.hotS, tid)
			if c.sv.SC(sv, my) {
				if c.sparse {
					// The buffer is now the record at version stamp+1 and is
					// read-only until S moves off it, so it matches that
					// version exactly.
					c.bufStamp[my] = stamp + 2
					dirty.reset()
				}
				c.onStateWrite(tid, -1) // S switch
				c.wonRound(tid, len(batch), anns)
				ctx.PWBLine(c.idx, 0)
				// Publish before the CAS-to-even: a helped thread that
				// finds Flush even leaves without looking further.
				c.psyncPublish(tid, my, stamp+1)
				c.flush[tid].V.CompareAndSwap(lval, lval+1)
				if c.PostSC != nil {
					c.PostSC(env, true)
				}
				if c.spans != nil {
					c.spans.Record(tid, obs.PhasePersist, tp, obs.Now(), ctx.Pwbs()-pwb0)
				}
				return c.recWord(c.retSlot(tid))
			}
			// Lost round: the record pwbs+pfence still happened, so the
			// persist span is recorded with its (wasted) pwb attribution.
			tw = c.lostRound(tid, env, obs.PhasePersist, tp, ctx.Pwbs()-pwb0)
		}
		c.backoffs[tid].Wait()
		c.backoffs[tid].Grow()
	}

	// Both attempts failed: some other combiner served our request. Before
	// responding, make sure a value of S that reflects our request is
	// durable. Flushing S always writes back its *current* contents, which
	// carry every earlier round's effects forward, so it is sufficient (and
	// necessary only) when the current combiner's round is still unpersisted
	// — flush[cpid] odd. The paper's listing additionally requires
	// CombRound[cpid][p] == lval, which can skip the persist when our round
	// was superseded before being persisted; we keep CombRound as the
	// documented fast-path hint but gate only on the parity for safety.
	//
	// The durable index is a second gate on the same condition, read off the
	// value of S itself instead of its combiner's Flush word: S as seen here
	// reflects our request, so a durable index behind it means no psync has
	// covered it yet, whatever the parity says (a helper that read Flush[cpid]
	// just before cpid re-armed it for a later round can have evened out the
	// wrong round). Our response may leave only when readers can see it.
	sv := c.sv.LL()
	slot, stamp := prim.UnpackVersioned(sv)
	cpid := int(c.state.Load(c.recOff(slot)+c.pidOff) % uint64(c.n))
	lval := c.flush[cpid].V.Load()
	if lval%2 == 1 || c.durVer() < stamp {
		ctx.PWBLine(c.idx, 0)
		c.psyncPublish(tid, slot, stamp)
		if lval%2 == 1 {
			c.flush[cpid].V.CompareAndSwap(lval, lval+1)
		}
	}
	c.onHelped(tid)
	// Being served by another thread's combining round is itself the
	// contention signal the announce backoff keys on.
	c.noteContention(tid)
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseWaitServe, tw, obs.Now(), 0)
	}
	return c.recWord(c.retSlot(tid))
}

// lostRound accounts for a discarded attempt — failed validation or failed SC
// — and, when the attempt had begun serving (env non-nil), lets the data
// structure roll its side effects back. It closes the attempt's open span
// (phase, from, arg) and returns the new phase boundary.
func (c *PWFComb) lostRound(tid int, env *Env, phase obs.Phase, from int64, arg uint64) (now int64) {
	c.onSCFail(tid)
	c.noteContention(tid)
	if env != nil && c.PostSC != nil {
		c.PostSC(env, false)
	}
	if c.spans != nil {
		now = obs.Now()
		c.spans.Record(tid, phase, from, now, arg)
	}
	return now
}

// sparseFill brings private buffer my up to date with the record at src
// (the S record at version stamp) by copying only the state lines that may
// differ — the lines the chain rewrote after the buffer's last sync
// (lineVer[l] > base) plus the buffer's own divergence (bufDirty) — and the
// whole tail. A buffer with unknown content (bufStamp == 0) is copied in
// full once. Refreshed lines are recorded in bufDirty *before* the copy so
// that a torn fill (S moved mid-copy; the caller's VL fails) leaves the
// divergence set correct, and in unFenced because the copy makes their
// durable bytes stale. Returns the number of words copied.
func (c *PWFComb) sparseFill(my, dst, src int, stamp uint64) int {
	d, u := c.bufDirty[my], c.unFenced[my]
	pidLine := c.pidOff / pmem.LineWords
	if c.bufStamp[my] == 0 {
		c.state.CopyWords(dst, c.state, src, c.recWords)
		for l := range c.lineVer {
			d.addLine(l)
			u.addLine(l)
		}
		return c.recWords
	}
	copied := 0
	base := c.bufStamp[my] - 1
	for l := range c.lineVer {
		if c.lineVer[l].Load() > base || d.has(l) {
			off := l * pmem.LineWords
			d.addLine(l)
			u.addLine(l)
			c.state.CopyWords(dst+off, c.state, src+off, pmem.LineWords)
			copied += pmem.LineWords
		}
	}
	// The caller stores its pid into the buffer immediately after the fill:
	// account for that write now so the line is re-synced by later fills and
	// reaches persistence.
	d.addLine(pidLine)
	u.addLine(pidLine)
	return copied
}

// publishLines raises lineVer for every line in lines to at least ver with
// a CAS-max, so stamps never regress even when a slow loser publishes late.
func (c *PWFComb) publishLines(ver uint64, lines []int) {
	for _, l := range lines {
		for {
			old := c.lineVer[l].Load()
			if old >= ver || c.lineVer[l].CompareAndSwap(old, ver) {
				break
			}
		}
	}
}

// sparsePWB writes back every buffer line whose durable bytes may lag the
// volatile buffer — the accumulated unFenced set (fills and writes of this
// and any aborted earlier attempts) merged with this round's own writes,
// tail lines included — so the caller's pfence restores durable == volatile
// before the SC can make the record reachable.
func (c *PWFComb) sparsePWB(ctx *pmem.Ctx, my, dst int) {
	u := c.unFenced[my]
	for _, l := range c.bufDirty[my].lines {
		u.addLine(l)
	}
	for _, l := range u.lines {
		ctx.PWB(c.state, dst+l*pmem.LineWords, pmem.LineWords)
	}
}
