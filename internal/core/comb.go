package core

import (
	"runtime"
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
// — and everything in that sentence lives here, once: the announcement
// blocks (one per thread: a control word and up to VecCap entries, an Invoke
// being a vector of one), the one announce-and-wait body behind Invoke and
// the vector entry points (with the backoff between announcing and
// competing), gather, serve, and Recover. The protocols add only what differs
// (the rounds interface): how a served copy becomes the current record.
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

	// The announcement blocks (see vector.go): annStride words per thread,
	// line-aligned — the control word, then vcap entries of entWords words
	// (op, a0, a1, originator·parity) — so entry 0 shares the control word's
	// line. Volatile: recovery re-supplies an announcement's operations (see
	// RecoverVec). The ReturnVal block is vcap words per thread so every op of
	// a served vector has a persistent response slot. Per-thread combiner
	// scratch: occ counts an announcement's entries per originator (all zero
	// between uses).
	vcap      int // max ops per announcement, at least 1
	ann       []atomic.Uint64
	annStride int
	occ       [][]int

	ctxs    []*pmem.Ctx
	scratch [][]Request
	envs    []paddedEnv // per-thread combiner environment, reused from round to round

	// Adaptive announce backoff (see runVec): per-thread bounded exponential
	// waits between announcing and competing, tuned by the observed combining
	// degree so announcements accumulate into larger batches exactly when
	// rounds still have room to grow. Under PWFcomb it has one more effect:
	// threads that are being helped wait out whole rounds, so SC wins
	// concentrate on the few threads that are not waiting — and a thread that
	// wins often has private buffers nearly in sync with S, which shrinks the
	// sparse fill and persist sets.
	annSteps []prim.PaddedUint64 // per-thread announce-wait length, in Spin steps (own thread only)
	annHot   []prim.PaddedUint64 // per-thread contention flag (own thread only)
	degEMA   prim.PaddedUint64   // combining-degree EMA, fixed-point <<emaShift; written by every winning round

	// spin says whether the instance's wait loops spin before they yield
	// (prim.NewSpin): set when every thread can have a processor of its own,
	// n <= GOMAXPROCS at construction. An oversubscribed instance yields on
	// every step, so a waiter hands its processor to the thread it waits for.
	spin bool

	// backoffs is PWFcomb's seeded per-thread backoff — its fixed wait when
	// n == 1, and its pause between failed attempts; nil under PBcomb, whose
	// fixed wait is a bare yield.
	backoffs []*prim.Backoff

	hotReq []pmem.HotWord // coherence hot spots (see pmem.HotWord): the announcement blocks

	// sparse is set when the record is wider than one line and either obj
	// marks its own stores or the per-thread tail (ReturnVal, Deactivate,
	// the protocol's words) takes up most of the record: rounds then copy and
	// persist only the record lines recent rounds dirtied (each protocol
	// keeps its own dirty-line bookkeeping) instead of the whole record.
	// Serve marks the whole state of an object that does not mark its
	// stores, so tracking a record that is mostly such state could save only
	// the lines of threads a round did not serve, and pays its bookkeeping
	// over every state line; a one-line record's dirty set could only ever
	// be line 0. Both keep the one whole-record copy and pwb.
	sparse bool
	// marks is set when obj is a SparseObject, which marks its own stores;
	// serve marks any other object's whole state dirty every round.
	marks bool

	// commit is the round hook (SetCommit): it commits a round's side effects
	// outside the record — a queue's durable tail, node recycling. PBcomb runs
	// it with won = true after the psync that makes a round durable and before
	// the lock is released; PWFcomb with true after a winning SC's psync, and
	// with false for every round it discards after serving began, so the data
	// structure rolls that round's side effects back.
	commit func(env *Env, won bool)

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
// state + ReturnVal + Deactivate + tail words in name/<proto>.state and the
// index word in name/<idxName>. The options shape the persistent layout, so
// re-opening after a crash must use the same options.
func (c *comb) init(p rounds, h *pmem.Heap, name, proto, idxName string, n int, obj Object, o CombOpts, tail, recs int) {
	if n <= 0 {
		panic("core: need at least one thread")
	}
	c.p, c.h, c.name, c.n, c.obj, c.stWords = p, h, name, n, obj, obj.StateWords()
	_, c.marks = obj.(SparseObject)
	c.bobj, _ = obj.(BatchObject)
	c.robj, _ = obj.(Reader)
	c.spin = n <= runtime.GOMAXPROCS(0)
	c.vcap = max(o.VecCap, 1)
	c.retOff = c.stWords
	c.deactOff = c.stWords + n*c.vcap
	c.recWords = pmem.RoundUpLine(c.deactOff + n + tail)
	c.sparse = c.recWords > pmem.LineWords && (c.marks || 2*c.stWords < c.recWords)

	c.state = h.AllocOrGet(name+"/"+proto+".state", recs*c.recWords)
	c.idx = h.AllocOrGet(name+"/"+idxName, 2*pmem.LineWords)

	c.annStride = pmem.RoundUpLine(1 + entWords*c.vcap)
	c.ann = make([]atomic.Uint64, n*c.annStride)
	c.occ = make([][]int, n)
	c.hotReq = make([]pmem.HotWord, n)
	c.ctxs = make([]*pmem.Ctx, n)
	c.scratch = make([][]Request, n)
	c.envs = make([]paddedEnv, n)
	c.seen = make([]prim.PaddedUint64, n)
	c.annSteps = make([]prim.PaddedUint64, n)
	c.annHot = make([]prim.PaddedUint64, n)
	for i := range c.ctxs {
		c.ctxs[i] = h.NewCtx()
		// At least a line of slack after each thread's words keeps
		// neighbouring threads' scratch, which every round writes, off one
		// cache line.
		c.scratch[i] = make([]Request, 0, n*c.vcap+pmem.LineWords)
		c.occ[i] = make([]int, n, n+pmem.LineWords)
		c.annSteps[i].V.Store(annStepMin)
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

// SetCommit installs f as the round hook (see comb.commit); nil uninstalls
// it. Install before concurrent use.
func (c *comb) SetCommit(f func(env *Env, won bool)) { c.commit = f }

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
	w := prim.NewSpin(c.spin)
	for {
		iv := c.idx.Load(0)
		slot, _ := prim.UnpackVersioned(iv)
		v := c.state.Load(c.recOff(slot) + off)
		if c.idx.Load(0) == iv {
			return v
		}
		w.Wait()
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
	c.onReadFallback(tid)
	return 0, false
}

// Peek is Read for a caller that is not one of the instance's threads (a
// structure's Len): it has no thread to announce as, so it retries until a
// probe validates — lock-free, not wait-free — and is not charged.
func (c *comb) Peek(op, a0, a1 uint64) uint64 {
	if c.robj == nil {
		panic("core: Peek on an object without a Reader face")
	}
	w := prim.NewSpin(c.spin)
	for {
		if _, ret, ok := c.probe(op, a0, a1); ok {
			return ret
		}
		w.Wait()
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

// Announce-backoff tuning: the wait is measured in Spin steps (each step is a
// chance for another thread to announce), bounded exponential in
// [annStepMin, 4*min(n, annDegreeCap)]; the combining-degree EMA uses
// emaShift bits of fixed point and an exponential window of 1/emaAlpha;
// degrees beyond annDegreeCap are treated as "batches are already large"
// regardless of n.
const (
	annStepMin   = 1
	emaShift     = 8
	emaAlpha     = 8
	annDegreeCap = 64
)

// Invoke announces and executes one operation for thread tid: a vector of
// one, through the same announcement block and body as InvokeVec. The caller
// supplies a per-thread sequence number that starts at 1 and increases by 1
// with every invocation; its low bit drives the activate/deactivate
// detectability scheme, as in the paper's system model.
func (c *comb) Invoke(tid int, op, a0, a1, seq uint64) uint64 {
	t0 := c.spanStart()
	c.storeEnt(tid, 0, op, a0, a1, tid, seq)
	return c.runVec(tid, 1, seq, nil, t0, true)
}

// announceWait adapts and applies thread tid's announce backoff. The wait is
// a bounded number of Spin steps — a short spin while every thread has a
// processor, a scheduler yield otherwise; either way each step is time in
// which another thread announces, which is what actually grows the next
// combiner's batch — and exits early the moment a combiner deactivates tid's
// request, so long waits under contention cost almost no extra latency.
// Growth requires both a contention signal (tid lost a round or was served
// by someone else since its last wait) and headroom in the combining degree:
// once rounds already serve about half the useful maximum, longer waits only
// add latency. The served check reads the current record without
// validating — a stale read can only cause a premature exit, and perform
// re-checks.
func (c *comb) announceWait(tid int, myActivate uint64) {
	target := uint64(c.n)
	if target > annDegreeCap {
		target = annDegreeCap
	}
	n := c.annSteps[tid].V.Load()
	if c.annHot[tid].V.Load() != 0 && c.degEMA.V.Load() < (target<<emaShift)*7/8 {
		if n*2 <= 4*target {
			n *= 2
		}
	} else if n/2 >= annStepMin {
		n /= 2
	}
	c.annSteps[tid].V.Store(n)
	c.annHot[tid].V.Store(0)
	w := prim.NewSpin(c.spin)
	for i := uint64(0); i < n; i++ {
		w.Wait()
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
// announcements (activate toggles gathered), not operations: a vectorized
// announcement carries up to VecCap ops, and measuring ops would tell the
// backoff a round of a few fat vectors is "already large" while most threads'
// slots went unserved — exactly the piling the wait exists to create. The
// wait's headroom target is n announcements either way. Winning rounds are
// serialized (by the lock, or by S's version, where a lost update only delays
// the EMA by one round), so a plain load/store pair suffices.
func (c *comb) wonRound(tid, degree, anns int) {
	c.onRound(tid, degree)
	old := c.degEMA.V.Load()
	c.degEMA.V.Store(old - old/emaAlpha + (uint64(anns)<<emaShift)/emaAlpha)
}

// clearAnnounce retires tid's completed announcement from its block. A
// delegated vector (InvokeDelegated) flips a thread's deactivate bit without
// the thread ever re-announcing, which would make a completed-but-still-valid
// block look active again to a later round and re-execute it; retiring the
// control word closes that resurrection window. Volatile-only and race-free:
// any round that gathered this announcement against the old deactivate bit
// either became current before the owning thread returned, or (PWFcomb) fails
// its SC/validation and discards its copy.
func (c *comb) clearAnnounce(tid int) {
	c.ann[c.annBase(tid)].Store(0)
}

// Recover is the recovery function for thread tid's interrupted operation:
// the system re-invokes it after a crash with the same arguments and seq as
// the original invocation. It is RecoverVec with a vector of one.
func (c *comb) Recover(tid int, op, a0, a1, seq uint64) uint64 {
	var ret [1]uint64
	c.RecoverVec(tid, []VecOp{{Op: op, A0: a0, A1: a1}}, seq, ret[:])
	return ret[0]
}

// paddedEnv is one thread's Env with a line of slack after it: every
// combining attempt rewrites it, and neighbouring threads' Envs must not share
// a cache line.
type paddedEnv struct {
	Env
	_ [pmem.LineWords]uint64
}

// env readies tid's combiner environment for a round on the record at dst;
// dirty is the set the round's writes are marked in (nil for a one-line
// record).
func (c *comb) env(tid, dst int, dirty *dirtySet) *Env {
	env := &c.envs[tid].Env
	*env = Env{Ctx: c.ctxs[tid], State: State{r: c.state, off: dst, n: c.stWords}, Combiner: tid, dirty: dirty}
	return env
}

// gather scans the announcement blocks against the Deactivate words of the
// record at dst and returns every active request and the number of
// announcements they came from.
//
// Each active block yields one Request per entry, in entry order, so each
// originator's program order is preserved within the round. Each entry names
// its originator, and its response and deactivate bit are credited to it (q
// itself, unless q delegates). Every announcement carries an entry of its
// announcer's own whose parity is the block's activate bit (InvokeDelegated
// insists on it), so serving the entries also retires the announcement. Under
// PWFcomb q may be rewriting its block concurrently (possible only after its
// current announcement completed); then this round's validation is already
// doomed and its writes stay in the private buffer, so a torn read here is
// harmless.
func (c *comb) gather(tid, dst int) (batch []Request, anns int) {
	batch, occ := c.scratch[tid][:0], c.occ[tid]
	for q := 0; q < c.n; q++ {
		b := c.annBase(q)
		ctl := c.ann[b].Load()
		c.onReqRead(tid, q)
		if !ctlValid(ctl) {
			continue
		}
		if ctlActivate(ctl) == c.state.Load(dst+c.deactOff+q) {
			continue
		}
		anns++
		c.h.Touch(&c.hotReq[q], tid)
		start := len(batch)
		for i, e := 0, b+1; i < ctlCount(ctl); i, e = i+1, e+entWords {
			ot, par := unpackDelMeta(c.ann[e+3].Load())
			if ot < 0 || ot >= c.n {
				continue // torn meta from a doomed rewrite
			}
			if par == c.state.Load(dst+c.deactOff+ot) {
				continue // originator already served (recovery replay)
			}
			batch = append(batch, Request{
				Tid: uint64(ot),
				Op:  c.ann[e].Load(),
				A0:  c.ann[e+1].Load(),
				A1:  c.ann[e+2].Load(),
				act: par,
				vi:  occ[ot],
			})
			occ[ot]++
		}
		for j := start; j < len(batch); j++ {
			occ[batch[j].Tid] = 0
		}
	}
	// No write-back: a round appends at most vcap entries per thread, within
	// the capacity init gave, so the array is the same.
	return batch, anns
}

// serve applies the gathered batch to the record env views and writes each
// request's ReturnVal and Deactivate words there, marking the tail lines it
// touches in the round's dirty set. An object that does not mark its own
// stores has its whole state marked: a wide queue or counter then writes back
// its state lines and the served threads' tail lines, not every thread's
// ReturnVal block.
func (c *comb) serve(tid int, env *Env, batch []Request) {
	if env.dirty != nil && !c.marks {
		env.dirty.add(0, c.stWords)
	}
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
}
