package core

import (
	"sync/atomic"

	"pcomb/internal/memmodel"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/prim"
)

// comb is the combining skeleton PBComb and PWFComb embed. The paper presents
// the two protocols as one scheme — a thread announces in Request[] with an
// activate toggle; a combiner gathers the active requests, applies them to a
// private copy of the current StateRec and writes ReturnVal/Deactivate there
// — and everything in that sentence lives here, once: the announcement array
// and the argument ring, announce (Invoke, the vector entry points, the
// backoff between announcing and competing), gather, serve, and Recover. The
// protocols add only what differs (the rounds interface): how a served copy
// becomes the current record.
type comb struct {
	h    *pmem.Heap
	name string
	n    int
	obj  Object
	bobj BatchObject // non-nil if obj implements BatchObject
	robj Reader      // non-nil if obj implements Reader
	p    rounds      // the embedding protocol

	// Record layout: object state, ReturnVal (vcap words per thread),
	// Deactivate (one word per thread), then the protocol's own tail.
	recWords int // words per StateRec (line-aligned)
	stWords  int
	retOff   int
	deactOff int

	state *pmem.Region // the StateRecs
	// idx word 0 selects the current record: MIndex under PBcomb, the versioned
	// S under PWFcomb — both keep the record slot in the low prim.SlotBits
	// bits, so the skeleton decodes either. Word LineWords is the init magic.
	idx *pmem.Region

	// dur is the durable index: the slot and a monotone version of the newest
	// record whose selection a psync has made durable, in idx's packing. It is
	// volatile, published by psyncPublish only AFTER that psync (idx itself
	// moves before it), re-seeded from idx at every open, and it is what Read
	// reads through — alone on its cache line, so a publication does not cost
	// every thread its copy of the read-mostly fields around it. seen[tid] is
	// the value thread tid last observed (own thread only): a reader is charged
	// a line transfer when it differs.
	dur  prim.PaddedUint64
	seen []prim.PaddedUint64

	// Vectorized announcements (CombOpts.VecCap > 1): the per-thread persistent
	// argument ring — vcap (op, a0, a1[, meta]) entries per thread,
	// line-aligned, published and persisted by the owner before the slot
	// toggle, so a combiner can drain the whole vector and recovery can re-read
	// the arguments. The ReturnVal block widens to vcap words per thread so
	// every op of a served vector has a persistent response slot.
	vcap      int // max ops per announcement (1 = scalar-only, no ring)
	vec       *pmem.Region
	vecStride int
	entWords  int // ring words per entry: 3, or 4 with delegation

	// Delegation (CombOpts.Delegate): ring entries widen to four words, the
	// fourth naming the originating thread and parity (see DelOp). delTogs is
	// per-thread combiner scratch for the announcer toggles a round owes to
	// delegating announcements, packed q<<1|act.
	delegate bool
	delTogs  [][]uint64

	req     []reqSlot
	ctxs    []*pmem.Ctx
	scratch [][]Request
	envs    []Env // per-thread combiner environment, reused from round to round

	// Adaptive announce backoff (see Invoke): per-thread bounded exponential
	// waits between announcing and competing, tuned by the observed combining
	// degree so announcements accumulate into larger batches exactly when
	// rounds still have room to grow. Under PWFcomb it has one more effect:
	// threads that are being helped wait out whole rounds, so SC wins
	// concentrate on the few threads that are not waiting — and a thread that
	// wins often has private buffers nearly in sync with S, which shrinks the
	// sparse fill and persist sets.
	annYld []prim.PaddedUint64 // per-thread announce-wait length, in yields (own thread only)
	annHot []prim.PaddedUint64 // per-thread contention flag (own thread only)
	degEMA atomic.Uint64       // combining-degree EMA, fixed-point <<emaShift

	// backoffs is PWFcomb's seeded per-thread backoff — its fixed wait when
	// n == 1, and its pause between failed attempts; nil under PBcomb, whose
	// fixed wait is a bare yield.
	backoffs []*prim.Backoff

	hotReq []pmem.HotWord // coherence hot spots (see pmem.HotWord): the announcement slots

	// sparse is set when obj is a SparseObject: rounds copy and persist only
	// the record lines recent rounds dirtied (each protocol keeps its own
	// dirty-line bookkeeping) instead of the whole record.
	sparse bool

	// The installed Probe (see SetProbe); each nil when not installed.
	mem   *memmodel.Hooks
	cstat CombTracker
	spans *obs.SpanLog
}

// rounds is what the paper says differs between the two protocols, as the
// skeleton calls it.
type rounds interface {
	// perform gets tid's announced request served — by winning a combining
	// round or by waiting for the round that served it to become durable — and
	// returns the first word of ReturnVal[tid].
	perform(tid int) uint64
}

// init lays out the shared part of a protocol instance: recs records of
// state + ReturnVal + Deactivate + tail words in name/<proto>.state, the
// index word in name/<idxName>, the ring in name/<proto>.vec. The options
// shape the persistent layout, so re-opening after a crash must use the same
// options.
func (c *comb) init(p rounds, h *pmem.Heap, name, proto, idxName string, n int, obj Object, o CombOpts, tail, recs int) {
	if n <= 0 {
		panic("core: need at least one thread")
	}
	c.p, c.h, c.name, c.n, c.obj, c.stWords = p, h, name, n, obj, obj.StateWords()
	_, c.sparse = obj.(SparseObject)
	c.bobj, _ = obj.(BatchObject)
	c.robj, _ = obj.(Reader)
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
	c.recWords = pmem.RoundUpLine(c.deactOff + n + tail)

	c.state = h.AllocOrGet(name+"/"+proto+".state", recs*c.recWords)
	c.idx = h.AllocOrGet(name+"/"+idxName, 2*pmem.LineWords)
	if c.vcap > 1 {
		c.vecStride = pmem.RoundUpLine(c.entWords * c.vcap)
		c.vec = h.AllocOrGet(name+"/"+proto+".vec", n*c.vecStride)
	}

	c.req = make([]reqSlot, n)
	c.hotReq = make([]pmem.HotWord, n)
	c.ctxs = make([]*pmem.Ctx, n)
	c.scratch = make([][]Request, n)
	c.envs = make([]Env, n)
	c.seen = make([]prim.PaddedUint64, n)
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
}

// boot initializes a fresh instance — the object's initial state in record
// slot, durable before the index word that selects it and the init magic —
// and seeds the durable index: at an open, fresh or after a crash, the
// persistent index word holds exactly its durable value.
func (c *comb) boot(slot int) {
	if c.idx.Load(pmem.LineWords) != initMagic {
		c.obj.Init(State{r: c.state, off: c.recOff(slot), n: c.stWords})
		ctx := c.ctxs[0]
		ctx.PWB(c.state, c.recOff(slot), c.recWords)
		ctx.PFence()
		c.idx.Store(0, prim.PackVersioned(slot, 0))
		c.idx.Store(pmem.LineWords, initMagic)
		ctx.PWB(c.idx, 0, 2*pmem.LineWords)
		ctx.PSync()
	}
	c.dur.V.Store(c.idx.Load(0))
}

// Name returns the instance's persistent name.
func (c *comb) Name() string { return c.name }

// Threads returns the number of threads the instance was created for.
func (c *comb) Threads() int { return c.n }

// Ctx returns thread tid's persistence context (for objects that allocate
// outside the combining record and for harness accounting).
func (c *comb) Ctx(tid int) *pmem.Ctx { return c.ctxs[tid] }

// AttachEpoch switches the instance to epoch-mode relaxed durability: every
// per-thread context defers its persistence instructions into e's buffer,
// to be replayed by e's closer. Call once after construction (boot-time
// persistence stays strict) and before concurrent use.
func (c *comb) AttachEpoch(e *pmem.Epoch) {
	for _, ctx := range c.ctxs {
		ctx.SetEpochBuf(e.Buf())
	}
}

func (c *comb) recOff(slot int) int { return slot * c.recWords }

// retSlot returns the record-relative offset of thread q's first ReturnVal
// word; a vector's i-th response lands at retSlot(q)+i.
func (c *comb) retSlot(q int) int { return c.retOff + q*c.vcap }

// cur returns the offset of the record the index word selects right now.
func (c *comb) cur() int {
	slot, _ := prim.UnpackVersioned(c.idx.Load(0))
	return c.recOff(slot)
}

// recWord reads word off of the current record, retrying if the index word
// moved during the read. The current record is never written — PBcomb's
// combiner writes the other one, PWFcomb's threads their private ones — so a
// validated read is consistent.
func (c *comb) recWord(off int) uint64 {
	for {
		iv := c.idx.Load(0)
		slot, _ := prim.UnpackVersioned(iv)
		v := c.state.Load(c.recOff(slot) + off)
		if c.idx.Load(0) == iv {
			return v
		}
		prim.Pause()
	}
}

// DeactParity returns thread tid's deactivate bit in the currently valid
// state record. After a crash's rollback to durable state this is the
// durable parity, which epoch-mode recovery compares against the in-flight
// sequence number to decide whether the operation certainly did not commit.
func (c *comb) DeactParity(tid int) uint64 { return c.recWord(c.deactOff + tid) }

// CurrentState returns a read-only view of the currently valid object state.
// It is safe only when no operations are in flight (harness/verification use).
func (c *comb) CurrentState() State {
	return State{r: c.state, off: c.cur(), n: c.stWords}
}

// readTries bounds Read's validated attempts. Each failed attempt means a
// whole combining round became durable during one probe of a few words, so
// the bound is reached only when writers hammer the instance; the caller then
// announces the read like an update, which is what keeps PWFcomb's reads
// wait-free.
const readTries = 8

// Read runs a read-only operation of thread tid against the newest DURABLE
// record and announces nothing: no request slot, no round, no persistence
// instruction. ok is false when the object has no Reader face or readTries
// validations failed in a row; the caller then falls back to Invoke, with a
// sequence number drawn as for any update (sysarea.Area.Read does).
//
// Why the durable index and not the persistent one (MIndex/S): a combiner
// stores the persistent index BEFORE the psync that makes it durable, so a
// reader following it could return a value that a crash then rolls back and
// that recovery, re-running the interrupted operations one thread at a time,
// re-creates in a different order — a response no crash-cut history explains.
// dur moves only after that psync, and before any response of the round
// leaves (psyncPublish), so a read returns durably linearized state and still
// sees every update that returned before it started. Under an epoch the psync
// is deferred, dur moves at once, and a read sees the newest state — the
// bounded loss window buffered durability allows its operations.
//
// Why the seqlock is sound — the record dur selects is not written while dur
// stands. PBcomb: the round that published (b, v) wrote record b; the next
// round writes the other record and publishes v+1 before releasing the lock;
// only the round after that writes b again. PWFcomb: a thread's two private
// records alternate through Index[p], which flips only in a record p itself
// installed, so p writes b again only after winning a later round with its
// other record — and a winner publishes that newer version before it returns,
// hence before its next attempt. Either way every store into b follows the
// publication of a version above v, and a reader whose second load still
// returns (b, v) finished its probe before that publication. A torn probe of
// a record being rewritten is therefore always discarded; Readers must only
// stay in bounds on it (see Reader).
func (c *comb) Read(tid int, op, a0, a1 uint64) (ret uint64, ok bool) {
	if c.robj == nil {
		return 0, false
	}
	for try := 0; try < readTries; try++ {
		var d uint64
		d, ret, ok = c.probe(op, a0, a1)
		if c.seen[tid].V.Load() != d {
			// The publisher invalidated the reader's copy of the line: one
			// transfer. An unchanged index is a cache hit and free. (Not a
			// HotWord: Touch moves ownership, and would bill the next
			// publisher a transfer for a line readers only share.)
			c.seen[tid].V.Store(d)
			prim.Burn(c.h.MissCost())
		}
		if ok {
			return ret, true
		}
	}
	return 0, false
}

// Peek is Read for a caller that is not one of the instance's threads (a
// structure's Len): it has no thread to announce as, so it retries until a
// probe validates — lock-free, not wait-free — and is not charged.
func (c *comb) Peek(op, a0, a1 uint64) uint64 {
	if c.robj == nil {
		panic("core: Peek on an object without a Reader face")
	}
	for {
		if _, ret, ok := c.probe(op, a0, a1); ok {
			return ret
		}
		prim.Pause()
	}
}

// probe is one seqlock attempt: the durable index it read through, the
// object's answer from the record that index selects, and whether the index
// still stood afterwards.
func (c *comb) probe(op, a0, a1 uint64) (d, ret uint64, ok bool) {
	d = c.dur.V.Load()
	slot, _ := prim.UnpackVersioned(d)
	ret = c.robj.Read(State{r: c.state, off: c.recOff(slot), n: c.stWords}, op, a0, a1)
	return d, ret, c.dur.V.Load() == d
}

// durVer returns the version of the durable index.
func (c *comb) durVer() uint64 {
	_, v := prim.UnpackVersioned(c.dur.V.Load())
	return v
}

// psyncPublish is the psync that makes the persistent index word's pending
// write-back durable, followed by the publication of (slot, ver) — a value the
// index word held when that write-back was issued — as the durable index. It
// is a CAS-max on the version: PBcomb's lock holder always raises it; under
// PWFcomb the SC winner and any helper that persists S on its behalf race, and
// whichever is later finds the index already there or further.
func (c *comb) psyncPublish(tid, slot int, ver uint64) {
	if publishSabotage.Load() {
		c.publish(tid, slot, ver)
	}
	c.ctxs[tid].PSync()
	c.publish(tid, slot, ver)
}

func (c *comb) publish(tid, slot int, ver uint64) {
	d := prim.PackVersioned(slot, ver)
	for {
		old := c.dur.V.Load()
		if _, v := prim.UnpackVersioned(old); v >= ver {
			return
		}
		if c.dur.V.CompareAndSwap(old, d) {
			c.seen[tid].V.Store(d) // the publisher holds the line it just wrote
			return
		}
	}
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
func (c *comb) Invoke(tid int, op, a0, a1, seq uint64) uint64 {
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
	// Wait between announcing and competing: this is what lets announcements
	// accumulate into large combining batches (cf. the paper's backoff
	// discussion). The wait is adaptive: it grows only while other threads are
	// demonstrably competing AND observed rounds are still small relative to
	// the thread count, and shrinks back otherwise, so an uncontended instance
	// degenerates to the fixed wait — PWFcomb's seeded backoff, or a bare
	// yield. (Spelled out here and in performVec rather than behind a helper or
	// the rounds interface: every frame between an entry point and the yield
	// costs a single-threaded Invoke some 30 ns.)
	switch {
	case c.n > 1:
		c.announceWait(tid, seq&1)
	case c.backoffs != nil:
		c.backoffs[tid].Wait()
	default:
		prim.Pause()
	}
	if c.spans != nil {
		c.spans.Record(tid, obs.PhaseBackoff, t1, obs.Now(), 0)
	}
	ret := c.p.perform(tid)
	c.clearAnnounce(tid)
	return ret
}

// announceWait adapts and applies thread tid's announce backoff. The wait is
// a bounded number of scheduler yields — each yield lets another announcing
// thread run, which is what actually grows the next combiner's batch — and
// exits early the moment a combiner deactivates tid's request, so long waits
// under contention cost almost no extra latency. Growth requires both a
// contention signal (tid lost a round or was served by someone else since its
// last wait) and headroom in the combining degree: once rounds already serve
// about half the useful maximum, longer waits only add latency. The served
// check reads the current record without validating — a stale read can only
// cause a premature exit, and perform re-checks.
func (c *comb) announceWait(tid int, myActivate uint64) {
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
		if c.state.Load(c.cur()+c.deactOff+tid) == myActivate {
			return // served while waiting; perform's entry check completes it
		}
	}
}

// noteContention records that tid lost a round (held lock, failed CAS/SC or
// validation) or was served by another combiner; consumed by the next
// announceWait. tid-local, so a plain store suffices; the padding avoids
// false sharing with neighbors.
func (c *comb) noteContention(tid int) {
	c.annHot[tid].V.Store(1)
}

// wonRound reports a round that became current: degree operations served for
// anns announcements. The combining-degree EMA feeding announceWait counts
// announcements (slot toggles gathered), not operations: a vectorized
// announcement carries up to VecCap ops, and measuring ops would tell the
// backoff a round of a few fat vectors is "already large" while most threads'
// slots went unserved — exactly the piling the wait exists to create. The
// wait's headroom target is n announcements either way. Winning rounds are
// serialized (by the lock, or by S's version, where a lost update only delays
// the EMA by one round), so a plain load/store pair suffices.
func (c *comb) wonRound(tid, degree, anns int) {
	c.onRound(tid, degree)
	old := c.degEMA.Load()
	c.degEMA.Store(old - old/emaAlpha + (uint64(anns)<<emaShift)/emaAlpha)
}

// clearAnnounce retires tid's completed announcement from its slot (delegate
// instances only). With delegation a thread's deactivate bit can flip without
// the thread ever re-announcing, which would make a completed-but-still-valid
// slot look active again to a later round and re-execute it; retiring the
// control word closes that resurrection window. Volatile-only and race-free:
// any round that gathered this announcement against the old deactivate bit
// either became current before the owning thread returned, or (PWFcomb) fails
// its SC/validation and discards its copy.
func (c *comb) clearAnnounce(tid int) {
	if c.delegate {
		c.req[tid].ctl.Store(0)
	}
}

// Recover is the recovery function for thread tid's interrupted operation:
// the system re-invokes it after a crash with the same arguments and seq as
// the original invocation.
func (c *comb) Recover(tid int, op, a0, a1, seq uint64) uint64 {
	if recoverSabotage.Load() {
		// Mutation-test bug: skip the republish and hand back the (possibly
		// stale) return slot unconditionally.
		return c.recWord(c.retSlot(tid))
	}
	// Re-announce with the original toggle so a combiner neither re-executes
	// a request that took effect nor skips one that did not.
	c.req[tid].announce(op, a0, a1, seq&1)
	if c.recWord(c.deactOff+tid) != seq&1 {
		ret := c.p.perform(tid)
		c.clearAnnounce(tid)
		return ret
	}
	c.clearAnnounce(tid)
	return c.recWord(c.retSlot(tid))
}

// env readies tid's combiner environment for a round on the record at dst;
// dirty is the set the round's writes are marked in (nil unless sparse).
func (c *comb) env(tid, dst int, dirty *dirtySet) *Env {
	env := &c.envs[tid]
	*env = Env{Ctx: c.ctxs[tid], State: State{r: c.state, off: dst, n: c.stWords}, Combiner: tid, dirty: dirty}
	return env
}

// gather scans the announcement array against the Deactivate words of the
// record at dst and returns every active request, the deferred toggles of
// delegating announcers (packed q<<1|act) and the number of announcements
// they came from.
func (c *comb) gather(tid, dst int) (batch []Request, togs []uint64, anns int) {
	batch = c.scratch[tid][:0]
	if c.delegate {
		togs = c.delTogs[tid][:0]
	}
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
		cnt := ctlCount(ctl)
		if cnt == 0 {
			batch = append(batch, Request{
				Tid: uint64(q),
				Op:  c.req[q].op.Load(),
				A0:  c.req[q].a0.Load(),
				A1:  c.req[q].a1.Load(),
				act: act,
			})
			continue
		}
		// Vectorized announcement: the arguments live in q's persistent ring
		// (already durable — q fenced them before the slot toggle), one
		// Request per entry, served in ring order so q's program order is
		// preserved within the round. Under PWFcomb q may be republishing
		// concurrently (possible only after its current vector completed);
		// then this round's validation is already doomed and its writes stay
		// in the private buffer, so a torn read here is harmless.
		vb := c.vecBase(q)
		if !c.delegate {
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
			continue
		}
		// Each entry carries its originator in the meta word: responses and
		// deactivate toggles are credited to the originator, and q's own
		// toggle is deferred to the side list so a completed delegating
		// announcement never clobbers an originator's response slot.
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
	}
	c.scratch[tid] = batch
	if c.delegate {
		c.delTogs[tid] = togs
	}
	return batch, togs, anns
}

// serve applies the gathered batch to the record env views and writes each
// request's ReturnVal and Deactivate words there, marking the tail lines it
// touches in the round's dirty set.
func (c *comb) serve(tid int, env *Env, batch []Request, togs []uint64) {
	if c.bobj != nil {
		c.bobj.ApplyBatch(env, batch)
	} else {
		for i := range batch {
			c.obj.Apply(env, &batch[i])
		}
	}
	dst := env.State.off
	for i := range batch {
		q := int(batch[i].Tid)
		ret := c.retSlot(q) + batch[i].vi
		c.state.Store(dst+ret, batch[i].Ret)
		c.state.Store(dst+c.deactOff+q, batch[i].act)
		if env.dirty != nil {
			env.dirty.addLine(ret / pmem.LineWords)
			env.dirty.addLine((c.deactOff + q) / pmem.LineWords)
		}
		c.onStateWrite(tid, dst+ret)
	}
	// Deactivate the delegating announcers themselves: toggle only, no
	// response — their entries' responses went to the originators above.
	for _, t := range togs {
		q := int(t >> 1)
		c.state.Store(dst+c.deactOff+q, t&1)
		if env.dirty != nil {
			env.dirty.addLine((c.deactOff + q) / pmem.LineWords)
		}
		c.onStateWrite(tid, dst+c.deactOff+q)
	}
}
