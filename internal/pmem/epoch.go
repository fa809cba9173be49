package pmem

import (
	"sync"
	"sync/atomic"
	"time"
)

// Epoch-mode relaxed durability: instead of executing pwb/pfence/psync on
// the issuing thread's critical path, contexts attached to an EpochBuf
// capture those instructions into a shared ordered buffer and return
// immediately. A background closer (a ticker goroutine, an explicit
// CloseNow, or a test clock) periodically *closes the epoch*: it replays the
// buffered instruction stream — including the protocols' own fence markers,
// so a crash mid-close can only expose durable states the strict-mode
// stream could have produced — then persists a monotone epoch stamp and
// wakes Wait()ers.
//
// The loss window is exactly the open epoch: operations whose epoch label
// (Epoch.Now() read after the operation returns) is at most the durable
// stamp survive any crash; later ones may vanish wholesale.

// epLine/epFence/epPsync tag EpochBuf records.
const (
	epLine = iota
	epFence
	epPsync
)

// epochRec is one deferred persistence instruction: a captured cache-line
// write-back (image inline, as in a context's pending queue), or a
// fence/psync marker holding its place in issue order.
type epochRec struct {
	flushRec // r is nil for fence/psync markers
	kind     int
}

// dirtyLine identifies one coalesced cache line a close must write back.
type dirtyLine struct {
	r    *Region
	line int
}

// regionDirty is one region's dirty-line set since the last take: a bitmap
// for O(1) dedup plus the list of set lines so take() never scans the bitmap.
// Both live across takes (the bitmap is cleared line by line, the list
// truncated in place), so steady-state capture allocates nothing.
type regionDirty struct {
	r     *Region
	bits  []uint64
	lines []int
}

// EpochBuf accumulates the persistence instructions deferred since the last
// epoch close. In ModeShadow it keeps the full ordered stream (captured
// line images + fence markers) for faithful replay; in ModeCount it keeps
// only the dirty-line set — the whole point of group commit is that a line
// rewritten many times within an epoch is written back once at the close.
// The count-mode set is per-region bitmaps, not a hash map: capture sits on
// the combiner's critical path, where a test-and-set beats hashing.
type EpochBuf struct {
	mu    sync.Mutex
	count bool // ModeCount: coalesce instead of capturing
	recs  []epochRec
	spare []epochRec // the stream the last take handed out; the next take reuses it
	regs  map[*Region]*regionDirty
	last  *regionDirty // capture's 1-entry region cache (guarded by mu)
}

// epochRange is one ctx-buffered count-mode write-back: lines [lo,hi] of r.
type epochRange struct {
	r      *Region
	lo, hi int
}

// capture appends the write-back of lines [lo,hi] of r as issued right now.
func (b *EpochBuf) capture(r *Region, lo, hi int) {
	b.mu.Lock()
	if b.count {
		b.insertLocked(r, lo, hi)
	} else {
		for li := lo; li <= hi; li++ {
			b.recs = append(b.recs, epochRec{kind: epLine})
			r.captureLine(li, &b.recs[len(b.recs)-1].flushRec)
		}
	}
	b.mu.Unlock()
}

// captureRanges merges a context's buffered count-mode ranges under one lock
// acquisition — the fast path's whole point: a round's worth of PWBs costs
// one mutex at the fence instead of one each.
func (b *EpochBuf) captureRanges(rs []epochRange) {
	b.mu.Lock()
	for _, er := range rs {
		b.insertLocked(er.r, er.lo, er.hi)
	}
	b.mu.Unlock()
}

// insertLocked sets lines [lo,hi] of r dirty. Caller holds b.mu; count mode.
func (b *EpochBuf) insertLocked(r *Region, lo, hi int) {
	rd := b.last
	if rd == nil || rd.r != r {
		rd = b.regs[r]
		if rd == nil {
			rd = &regionDirty{r: r}
			b.regs[r] = rd
		}
		b.last = rd
	}
	if w := hi >> 6; w >= len(rd.bits) {
		rd.bits = append(rd.bits, make([]uint64, w+1-len(rd.bits))...)
	}
	for li := lo; li <= hi; li++ {
		if rd.bits[li>>6]&(1<<(uint(li)&63)) == 0 {
			rd.bits[li>>6] |= 1 << (uint(li) & 63)
			rd.lines = append(rd.lines, li)
		}
	}
}

// mergeEpochRanges flushes the context's buffered ranges into the shared
// epoch buffer. Called from PFence/PSync in count mode: an operation's
// completion point is its round's fence, so by the time any operation has
// returned to its caller, every line it dirtied is merged and the next close
// covers it. A close racing the window between a PWB and the fence can only
// make Wait over-wait (the sampled label is the already-bumped open epoch),
// never report durability early.
func (c *Ctx) mergeEpochRanges() {
	if len(c.epending) == 0 {
		return
	}
	c.ebuf.captureRanges(c.epending)
	c.epending = c.epending[:0]
}

// mark appends a fence or psync marker. ModeCount drops it: deferred fences
// are absorbed into the close's single pfence+psync.
func (b *EpochBuf) mark(kind int) {
	if b.count {
		return
	}
	b.mu.Lock()
	b.recs = append(b.recs, epochRec{kind: kind})
	b.mu.Unlock()
}

// take atomically drains the buffer for a close. The returned stream is
// valid until the next take, which reuses its storage: closes are serialized
// and each has replayed its stream before the next one starts.
func (b *EpochBuf) take() ([]epochRec, []dirtyLine) {
	b.mu.Lock()
	recs := b.recs
	b.recs, b.spare = b.spare[:0], recs
	var dirty []dirtyLine
	if b.count {
		n := 0
		for _, rd := range b.regs {
			n += len(rd.lines)
		}
		if n > 0 {
			dirty = make([]dirtyLine, 0, n)
			for _, rd := range b.regs {
				for _, li := range rd.lines {
					rd.bits[li>>6] &^= 1 << (uint(li) & 63)
					dirty = append(dirty, dirtyLine{rd.r, li})
				}
				rd.lines = rd.lines[:0]
			}
		}
	}
	b.mu.Unlock()
	return recs, dirty
}

// epochSabotage, when set, makes every epoch close claim durability (the
// stamp advances) WITHOUT replaying the buffered write-backs — the exact
// group-commit bug (acknowledging before fsync) the epoch-aware durable
// linearizability checker exists to catch. Mutation-test use only.
var epochSabotage atomic.Bool

// SetEpochSabotage switches the deliberate epoch-close bug on or off.
func SetEpochSabotage(on bool) { epochSabotage.Store(on) }

// EpochClose describes one completed close (CloseTimes).
type EpochClose struct {
	Epoch uint64
	At    time.Time
	Lines int // write-backs replayed (coalesced lines in ModeCount)
}

// EpochOpts configures NewEpoch.
type EpochOpts struct {
	// Interval starts a background ticker closing every Interval (0 = no
	// ticker; close via CloseNow or Tick).
	Interval time.Duration
	// Tick, when non-nil, is a test clock: every receive triggers one close.
	// Closing the channel stops the goroutine.
	Tick <-chan struct{}
}

// epochCloseCap bounds the CloseTimes ring.
const epochCloseCap = 1 << 16

// Epoch is one structure's group-commit state: the shared deferral buffer
// its contexts feed, the strict closer context that replays it, and the
// persistent stamp recording the last closed epoch.
type Epoch struct {
	h     *Heap
	buf   *EpochBuf
	ctx   *Ctx
	stamp *Region

	openE   atomic.Uint64 // epoch now accumulating
	closedE atomic.Uint64 // last epoch whose close psync retired

	closeMu sync.Mutex // serializes closePass
	waitMu  sync.Mutex
	waitC   *sync.Cond

	closesMu sync.Mutex
	closes   []EpochClose // ring of the most recent closes
	ncloses  uint64

	stop chan struct{}
	done chan struct{}
}

// NewEpoch creates (or, on a reopened heap, reattaches) the epoch state for
// the named structure. The stamp region name+"/epoch.stamp" is part of the
// persistent layout; on reattach the open epoch resumes one past the last
// durably closed one.
func NewEpoch(h *Heap, name string, opts EpochOpts) *Epoch {
	e := &Epoch{
		h:     h,
		buf:   &EpochBuf{count: h.cfg.Mode == ModeCount},
		ctx:   h.NewCtx(),
		stamp: h.AllocOrGet(name+"/epoch.stamp", LineWords),
	}
	if e.buf.count {
		e.buf.regs = make(map[*Region]*regionDirty)
	}
	e.waitC = sync.NewCond(&e.waitMu)
	closed := e.stamp.Load(0)
	e.closedE.Store(closed)
	e.openE.Store(closed + 1)
	if opts.Interval > 0 || opts.Tick != nil {
		e.stop = make(chan struct{})
		e.done = make(chan struct{})
		go e.run(opts.Interval, opts.Tick)
	}
	return e
}

// Buf returns the deferral buffer to attach to contexts (Ctx.SetEpochBuf).
func (e *Epoch) Buf() *EpochBuf { return e.buf }

// Now returns the open epoch: the label of every operation that returns
// before the next close. Read it AFTER the operation returns — the close
// bumps the open epoch before draining the buffer, so a label observed
// after the operation's write-backs were buffered is a lower bound on the
// close that persists them.
func (e *Epoch) Now() uint64 { return e.openE.Load() }

// Closed returns the last durably closed epoch.
func (e *Epoch) Closed() uint64 { return e.closedE.Load() }

// CloseNow synchronously closes the open epoch; on the nil Epoch of a strict
// structure it does nothing. It panics with CrashError when the heap has
// crashed (waiters are woken first).
func (e *Epoch) CloseNow() {
	if e == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			e.waitC.Broadcast()
			panic(r)
		}
	}()
	e.closePass()
}

// Wait blocks until epoch target is durably closed; it returns false when
// the heap crashed before that happened.
func (e *Epoch) Wait(target uint64) bool {
	e.waitMu.Lock()
	defer e.waitMu.Unlock()
	for e.closedE.Load() < target {
		if e.h.crashedFlag.Load() {
			return false
		}
		e.waitC.Wait()
	}
	return true
}

// Stop halts the ticker goroutine (if any) and performs a final close so
// everything applied before Stop is durable. Safe after a crash (the final
// close is skipped), and a no-op on the nil Epoch.
func (e *Epoch) Stop() {
	if e == nil {
		return
	}
	if e.stop != nil {
		close(e.stop)
		<-e.done
		e.stop = nil
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(CrashError); !ok {
				panic(r)
			}
		}
	}()
	e.closePass()
}

// CloseTimes returns the recorded closes, oldest first (a bounded ring:
// only the most recent epochCloseCap closes are kept).
func (e *Epoch) CloseTimes() []EpochClose {
	e.closesMu.Lock()
	defer e.closesMu.Unlock()
	if e.ncloses <= uint64(len(e.closes)) {
		return append([]EpochClose(nil), e.closes...)
	}
	head := int(e.ncloses % uint64(len(e.closes)))
	out := make([]EpochClose, 0, len(e.closes))
	out = append(out, e.closes[head:]...)
	return append(out, e.closes[:head]...)
}

func (e *Epoch) run(interval time.Duration, tick <-chan struct{}) {
	defer close(e.done)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(CrashError); !ok {
				panic(r)
			}
			// The heap crashed under a close: wake waiters (Wait re-checks
			// the crashed flag) and exit for good — a stale ticker must not
			// keep writing this structure's stamp after the harness reopens.
			e.waitC.Broadcast()
		}
	}()
	var tc <-chan time.Time
	if interval > 0 {
		tk := time.NewTicker(interval)
		defer tk.Stop()
		tc = tk.C
	}
	for {
		select {
		case <-e.stop:
			return
		case <-tc:
			e.closePass()
		case _, ok := <-tick:
			if !ok {
				return
			}
			e.closePass()
		}
	}
}

// closePass closes the open epoch: bump the open counter (new operations
// label into the next epoch), drain the buffer, replay the deferred
// instruction stream on the strict closer context, persist the stamp, and
// wake waiters. Empty epochs still close (the stamp write keeps the cadence
// observable and Wait simple).
func (e *Epoch) closePass() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.h.crashedFlag.Load() {
		panic(CrashError{})
	}
	ec := e.openE.Add(1) - 1
	recs, dirty := e.buf.take()
	lines := 0
	ctx := e.ctx
	if epochSabotage.Load() {
		// Mutant: acknowledge the close durably without persisting the
		// epoch's write-backs. DirectStore makes the stamp itself survive
		// the crash, so recovery believes epoch ec is safe when it is not.
		e.stamp.DirectStore(0, ec)
	} else {
		if e.buf.count {
			for _, dl := range dirty {
				ctx.PWBLine(dl.r, dl.line*LineWords)
				lines++
			}
		} else {
			// Replay in issue order. Fence markers matter: without them the
			// crash adversary (random-cut, torn-line) could durably apply a
			// commit line without the record lines it orders after, a state
			// the strict stream can never produce.
			for i := range recs {
				switch rec := &recs[i]; rec.kind {
				case epFence:
					ctx.PFence()
				case epPsync:
					ctx.PSync()
				default:
					ctx.event()
					ctx.pwbs++
					ctx.pending = append(ctx.pending, rec.flushRec)
					ctx.charge(e.h.pwbCost, 1)
					lines++
				}
			}
		}
		ctx.PFence()
		e.stamp.Store(0, ec)
		ctx.PWBLine(e.stamp, 0)
		ctx.PSync()
	}
	e.waitMu.Lock()
	e.closedE.Store(ec)
	e.waitMu.Unlock()
	e.waitC.Broadcast()

	e.closesMu.Lock()
	if len(e.closes) < epochCloseCap {
		e.closes = append(e.closes, EpochClose{Epoch: ec, At: time.Now(), Lines: lines})
	} else {
		e.closes[e.ncloses%epochCloseCap] = EpochClose{Epoch: ec, At: time.Now(), Lines: lines}
	}
	e.ncloses++
	e.closesMu.Unlock()
}
