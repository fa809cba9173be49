package core

import (
	"sync/atomic"

	"pcomb/internal/memmodel"
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
// (persistence principles 1 and 2).
type PWFComb struct {
	h    *pmem.Heap
	name string
	n    int
	obj  Object
	bobj BatchObject

	recWords int
	stWords  int
	retOff   int
	deactOff int
	idxOff   int
	pidOff   int

	state *pmem.Region // 2n+1 records: slots p*2, p*2+1 per thread; slot 2n is the initial dummy
	sreg  *pmem.Region // word 0: versioned S; word LineWords: init magic
	sv    pmem.Versioned

	// Vectorized announcements (CombOpts.VecCap > 1): the same argument
	// ring as PBComb's. Combiners read it only for announcements whose ctl
	// carries a count; a stale read (the owner republishing for its next
	// vector) can only happen in a round whose SC/validation is already
	// doomed, and such a round's writes stay in the loser's private buffer.
	vecRing

	// Delegation (CombOpts.Delegate): see PBComb — four-word ring entries
	// whose meta word credits each op to its originator; delTogs is combiner
	// scratch for the deferred announcer toggles, packed q<<1|act.
	delegate bool
	delTogs  [][]uint64

	req       []reqSlot
	flush     []prim.PaddedUint64
	combRound []uint64 // [p*n+q], accessed atomically

	scratch  [][]Request
	envs     []Env // per-thread combiner environment, reused from attempt to attempt
	backoffs []*prim.Backoff

	// Adaptive announce backoff (see Invoke): the same degree-tuned yield
	// scheme as PBComb's, with one extra effect specific to PWFcomb. Threads
	// that are being helped wait out whole rounds, so SC wins concentrate on
	// the few threads that are not waiting — and a thread that wins often has
	// private buffers nearly in sync with S, which shrinks the sparse fill
	// and persist sets (buffer staleness, not batch size, is what dominates
	// a wide record's per-round persistence cost).
	adaptive bool
	annYld   []prim.PaddedUint64 // per-thread announce-wait length, in yields (own thread only)
	annHot   []prim.PaddedUint64 // per-thread contention flag (own thread only)
	degEMA   atomic.Uint64       // combining-degree EMA, fixed-point <<emaShift

	// Coherence hot spots: S, the announcement slots, and the records.
	hotS   pmem.HotWord
	hotReq []pmem.HotWord
	hotRec []pmem.HotWord

	// sparse selects sparse fills and persists (NewPWFCombSparse): a thread
	// refreshes only the state lines that changed since its private buffer
	// last matched some S version, and persists only the lines whose durable
	// bytes may lag the buffer, instead of copying and writing back the whole
	// record on every attempt. Objects must report every state write via
	// Env.MarkDirty.
	sparse bool
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

	track *memmodel.Hooks
	cstat CombTracker
	vstat VecTracker
}

// NewPWFComb creates (or re-opens after a crash) a PWFComb instance for n
// threads driving the given sequential object.
func NewPWFComb(h *pmem.Heap, name string, n int, obj Object) *PWFComb {
	return NewPWFCombWith(h, name, n, obj, CombOpts{})
}

// NewPWFCombSparse creates a PWFComb instance with sparse fills and sparse
// record persistence: each attempt copies only the record lines that changed
// since the thread's private buffer was last in sync with S (tracked with
// per-line version stamps) and persists only the lines whose durable bytes
// may be stale — including the ReturnVal/Deactivate/Index tail, where only
// the entries of threads a round actually served change. The object must
// call Env.MarkDirty for every state word it stores. This is the wait-free
// counterpart of NewPBCombSparse for large states, where every competing
// thread paying a whole-record copy and write-back per attempt dominates.
func NewPWFCombSparse(h *pmem.Heap, name string, n int, obj Object) *PWFComb {
	return NewPWFCombWith(h, name, n, obj, CombOpts{Sparse: true})
}

// NewPWFCombWith creates (or re-opens) a PWFComb instance with explicit
// options; the other constructors are thin wrappers. The options shape the
// persistent layout, so re-opening after a crash must use the same options.
// CombOpts.DurableOnly is a PBComb-only option and is rejected here.
func NewPWFCombWith(h *pmem.Heap, name string, n int, obj Object, o CombOpts) *PWFComb {
	if n <= 0 {
		panic("core: need at least one thread")
	}
	if o.DurableOnly {
		panic("core: PWFComb has no durably-linearizable-only variant")
	}
	c := &PWFComb{h: h, name: name, n: n, obj: obj, stWords: obj.StateWords()}
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
	c.idxOff = c.deactOff + n
	c.pidOff = c.idxOff + n
	c.recWords = pmem.RoundUpLine(c.pidOff + 1)

	c.state = h.AllocOrGet(name+"/pwfcomb.state", (2*n+1)*c.recWords)
	c.sreg = h.AllocOrGet(name+"/pwfcomb.s", 2*pmem.LineWords)
	c.sv = pmem.Versioned{R: c.sreg, I: 0}
	if c.vcap > 1 {
		c.vecStride = pmem.RoundUpLine(c.entWords * c.vcap)
		c.vec = h.AllocOrGet(name+"/pwfcomb.vec", n*c.vecStride)
	}

	c.req = make([]reqSlot, n)
	c.hotReq = make([]pmem.HotWord, n)
	c.hotRec = make([]pmem.HotWord, 2*n+1)
	c.flush = make([]prim.PaddedUint64, n)
	c.combRound = make([]uint64, n*n)
	c.ctxs = make([]*pmem.Ctx, n)
	c.scratch = make([][]Request, n)
	c.envs = make([]Env, n)
	c.backoffs = make([]*prim.Backoff, n)
	c.adaptive = true
	c.annYld = make([]prim.PaddedUint64, n)
	c.annHot = make([]prim.PaddedUint64, n)
	for i := 0; i < n; i++ {
		c.ctxs[i] = h.NewCtx()
		c.scratch[i] = make([]Request, 0, n*c.vcap)
		c.backoffs[i] = prim.NewBackoff(16, 4096, int64(i)+1)
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

	if c.sreg.Load(pmem.LineWords) != initMagic {
		dummy := 2 * n
		obj.Init(State{r: c.state, off: dummy * c.recWords, n: c.stWords})
		ctx := c.ctxs[0]
		ctx.PWB(c.state, dummy*c.recWords, c.recWords)
		ctx.PFence()
		c.sreg.Store(0, prim.PackVersioned(dummy, 0))
		c.sreg.Store(pmem.LineWords, initMagic)
		ctx.PWB(c.sreg, 0, 2*pmem.LineWords)
		ctx.PSync()
	}
	return c
}

// SetTracker installs shared-memory access instrumentation (Table 1).
func (c *PWFComb) SetTracker(t *memmodel.Tracker) {
	if t == nil {
		c.track = nil
		return
	}
	c.track = memmodel.NewHooks(t, c.n, c.stWords, c.recWords, len(c.req))
}

// Name returns the instance's persistent name.
func (c *PWFComb) Name() string { return c.name }

// Threads returns the number of threads the instance was created for.
func (c *PWFComb) Threads() int { return c.n }

// Ctx returns thread tid's persistence context.
func (c *PWFComb) Ctx(tid int) *pmem.Ctx { return c.ctxs[tid] }

// AttachEpoch switches the instance to epoch-mode relaxed durability, as
// PBComb.AttachEpoch.
func (c *PWFComb) AttachEpoch(e *pmem.Epoch) {
	for _, ctx := range c.ctxs {
		ctx.SetEpochBuf(e.Buf())
	}
}

// DeactParity returns thread tid's deactivate bit in the currently valid
// state record, as PBComb.DeactParity.
func (c *PWFComb) DeactParity(tid int) uint64 {
	return c.readRecWord(tid, c.deactOff+tid)
}

func (c *PWFComb) recOff(slot int) int { return slot * c.recWords }

// retSlot returns the record-relative offset of thread q's first ReturnVal
// word; a vector's i-th response lands at retSlot(q)+i.
func (c *PWFComb) retSlot(q int) int { return c.retOff + q*c.vcap }

// CurrentState returns a view of the currently valid object state. It is
// safe only when no operations are in flight.
func (c *PWFComb) CurrentState() State {
	slot, _ := prim.UnpackVersioned(c.sv.LL())
	return State{r: c.state, off: c.recOff(slot), n: c.stWords}
}

// Invoke announces and executes one operation for thread tid; seq follows
// the same contract as PBComb.Invoke.
func (c *PWFComb) Invoke(tid int, op, a0, a1, seq uint64) uint64 {
	var t0, t1 int64
	if c.spans != nil {
		t0 = obs.Now()
	}
	c.req[tid].announce(op, a0, a1, seq&1)
	if c.spans != nil {
		t1 = obs.Now()
		c.spans.Record(tid, obs.PhasePublish, t0, t1, 1)
	}
	if c.adaptive && c.n > 1 {
		c.announceWaitW(tid, seq&1)
	} else {
		c.backoffs[tid].Wait()
	}
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseBackoff, t1, obs.Now(), 0)
	}
	ret := c.perform(tid)
	c.clearAnnounce(tid)
	return ret
}

// clearAnnounce retires tid's completed announcement from its slot (delegate
// instances only; see PBComb.clearAnnounce). Race-free here because a
// concurrent combining round that gathered the announcement against the old
// deactivate bit either installed before the owner returned or fails its
// SC/validation and discards its copy.
func (c *PWFComb) clearAnnounce(tid int) {
	if c.delegate {
		c.req[tid].ctl.Store(0)
	}
}

// SetAdaptiveBackoff enables or disables the adaptive announce backoff
// (enabled by default). Disabled, Invoke falls back to the fixed seeded
// backoff between announcing and combining, the pre-backoff behavior.
func (c *PWFComb) SetAdaptiveBackoff(on bool) { c.adaptive = on }

// announceWaitW is PBComb.announceWait for the wait-free protocol: a bounded
// number of scheduler yields between announcing and combining, grown only
// under contention while observed rounds still have headroom, with an early
// exit the moment some combiner deactivates tid's request. The served check
// reads the record under S without validating — a stale read can only cause
// a premature exit, and perform re-checks with a validated read.
func (c *PWFComb) announceWaitW(tid int, myActivate uint64) {
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
		slot, _ := prim.UnpackVersioned(c.sv.LL())
		if c.state.Load(c.recOff(slot)+c.deactOff+tid) == myActivate {
			return // served while waiting; perform's entry check completes it
		}
	}
}

// noteContentionW records that tid lost a round (failed SC or post-serve
// validation) or was served by another combiner; consumed by the next
// announceWaitW. tid-local, so a plain store suffices.
func (c *PWFComb) noteContentionW(tid int) {
	if c.adaptive {
		c.annHot[tid].V.Store(1)
	}
}

// Recover is the recovery function for thread tid's interrupted operation.
func (c *PWFComb) Recover(tid int, op, a0, a1, seq uint64) uint64 {
	if recoverSabotage.Load() {
		// Mutation-test bug: skip the republish and hand back the (possibly
		// stale) return slot unconditionally.
		return c.readRecWord(tid, c.retSlot(tid))
	}
	c.req[tid].announce(op, a0, a1, seq&1)
	if c.readRecWord(tid, c.deactOff+tid) != seq&1 {
		ret := c.perform(tid)
		c.clearAnnounce(tid)
		return ret
	}
	c.clearAnnounce(tid)
	return c.readRecWord(tid, c.retSlot(tid))
}

// readRecWord reads word off of the record currently pointed to by S,
// validating that S did not move during the read (a record reachable from S
// is never written, so a validated read is consistent).
func (c *PWFComb) readRecWord(tid, off int) uint64 {
	for {
		sv := c.sv.LL()
		slot, _ := prim.UnpackVersioned(sv)
		v := c.state.Load(c.recOff(slot) + off)
		if c.sv.VL(sv) {
			return v
		}
		prim.Pause()
	}
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
	served := c.readRecWord(tid, c.deactOff+tid) == myActivate
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
		c.onRecCopyW(tid, slot, my)
		c.onCopiedW(tid, copied)
		srcPid := int(c.state.Load(dst+c.pidOff) % uint64(c.n))
		c.state.Store(dst+c.pidOff, uint64(tid))

		lval := c.flush[srcPid].V.Load()
		if lval%2 == 0 {
			lval++
		} else {
			lval += 2
		}
		if !c.sv.VL(sv) {
			c.onSCFailW(tid)
			c.noteContentionW(tid)
			if c.spans != nil {
				tw = obs.Now()
				c.spans.Record(tid, obs.PhaseCombine, ta, tw, 0)
			}
			continue
		}

		env := &c.envs[tid]
		*env = Env{Ctx: ctx, State: State{r: c.state, off: dst, n: c.stWords}, Combiner: tid}
		if c.sparse {
			// The validated fill proved the buffer now matches version
			// `stamp` exactly: record the sync and clear the divergence set,
			// which from here on collects only this round's own writes (via
			// env.MarkDirty and the explicit tail marks below). unFenced is
			// NOT cleared — only a pfence does that. The pid store above
			// already diverged the buffer from the synced version, so its
			// line goes straight back in.
			c.bufStamp[my] = stamp + 1
			c.bufDirty[my].reset()
			c.bufDirty[my].addLine(c.pidOff / pmem.LineWords)
			env.dirty = c.bufDirty[my]
		}
		if c.PreServe != nil {
			c.PreServe(env)
		}

		batch := c.scratch[tid][:0]
		var togs []uint64
		if c.delegate {
			togs = c.delTogs[tid][:0]
		}
		anns := 0
		for q := 0; q < c.n; q++ {
			ctl := c.req[q].ctl.Load()
			c.onReqReadW(tid, q)
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
				// Vectorized announcement: drain q's argument ring in order.
				// If q is concurrently republishing (possible only after its
				// current vector completed), this round's validation is
				// already doomed and its writes stay in the private buffer,
				// so a torn read here is harmless.
				vb := c.vecBase(q)
				if c.delegate {
					// Delegated entries credit response and toggle to the
					// originator named in the meta word; the announcer's own
					// toggle is deferred to the side list (see PBComb).
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
				d := c.bufDirty[my]
				d.addLine(ret / pmem.LineWords)
				d.addLine((c.deactOff + q) / pmem.LineWords)
			}
			atomic.StoreUint64(&c.combRound[tid*c.n+q], lval)
		}
		// Deactivate the delegating announcers themselves: toggle only, no
		// response — their entries' responses went to the originators above.
		for _, t := range togs {
			q := int(t >> 1)
			c.state.Store(dst+c.deactOff+q, t&1)
			if c.sparse {
				c.bufDirty[my].addLine((c.deactOff + q) / pmem.LineWords)
			}
			atomic.StoreUint64(&c.combRound[tid*c.n+q], lval)
		}

		if c.sv.VL(sv) {
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
				c.bufDirty[my].addLine((c.idxOff + tid) / pmem.LineWords)
				// Publish this round's dirty lines before the SC so any
				// thread that later syncs to version stamp+1 refreshes them;
				// if the SC loses, the publication merely over-approximates.
				c.publishLines(stamp+1, c.bufDirty[my].lines)
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
					c.bufDirty[my].reset()
				}
				c.onSWriteW(tid)
				c.onRoundW(tid, len(batch))
				if c.adaptive {
					// Combining-degree EMA feeding announceWaitW, counted in
					// announcements gathered rather than operations so that
					// vectorized announcements (up to VecCap ops per toggle)
					// don't saturate the backoff's headroom target of n while
					// most slots go unserved. Round wins are serialized by S's
					// version, so concurrent updates are rare; a lost update
					// only delays the EMA by one round.
					old := c.degEMA.Load()
					c.degEMA.Store(old - old/emaAlpha + (uint64(anns)<<emaShift)/emaAlpha)
				}
				ctx.PWBLine(c.sreg, 0)
				ctx.PSync()
				c.flush[tid].V.CompareAndSwap(lval, lval+1)
				if c.PostSC != nil {
					c.PostSC(env, true)
				}
				if c.spans != nil {
					c.spans.Record(tid, obs.PhasePersist, tp, obs.Now(), ctx.Pwbs()-pwb0)
				}
				return c.readRecWord(tid, c.retSlot(tid))
			}
			c.onSCFailW(tid)
			c.noteContentionW(tid)
			if c.PostSC != nil {
				c.PostSC(env, false)
			}
			if c.spans != nil {
				// Lost round: the record pwbs+pfence still happened, so the
				// persist span is recorded with its (wasted) pwb attribution.
				tw = obs.Now()
				c.spans.Record(tid, obs.PhasePersist, tp, tw, ctx.Pwbs()-pwb0)
			}
		} else {
			// The validation after serving failed: this round is discarded
			// exactly like a failed SC, so side effects must roll back too
			// (a missing rollback here leaks every node the batch allocated).
			c.onSCFailW(tid)
			c.noteContentionW(tid)
			if c.PostSC != nil {
				c.PostSC(env, false)
			}
			if c.spans != nil {
				tw = obs.Now()
				c.spans.Record(tid, obs.PhaseCombine, ta, tw, uint64(len(batch)))
			}
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
	sv := c.sv.LL()
	slot, _ := prim.UnpackVersioned(sv)
	cpid := int(c.state.Load(c.recOff(slot)+c.pidOff) % uint64(c.n))
	lval := c.flush[cpid].V.Load()
	if lval%2 == 1 {
		ctx.PWBLine(c.sreg, 0)
		ctx.PSync()
		c.flush[cpid].V.CompareAndSwap(lval, lval+1)
	}
	c.onHelpedW(tid)
	// Being served by another thread's combining round is itself the
	// contention signal the announce backoff keys on.
	c.noteContentionW(tid)
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseWaitServe, tw, obs.Now(), 0)
	}
	return c.readRecWord(tid, c.retSlot(tid))
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

// Instrumentation forwarders for PWFComb.

func (c *PWFComb) onReqReadW(tid, q int) {
	if c.track != nil {
		c.track.ReqRead(tid, q)
	}
}

func (c *PWFComb) onRecCopyW(tid, src, dst int) {
	if c.track != nil {
		c.track.RecCopy(tid, src%2, dst%2)
	}
}

func (c *PWFComb) onSWriteW(tid int) {
	if c.track != nil {
		c.track.StateWrite(tid, -1)
	}
}
