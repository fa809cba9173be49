package pmem

import "time"

// CrashError is the panic value raised when a simulated crash fires inside a
// persistence instruction. Harnesses recover() it and run the algorithm's
// recovery path.
type CrashError struct{}

func (CrashError) Error() string { return "pmem: simulated system crash" }

// flushRec is one scheduled cache-line write-back: the line's contents as
// captured when pwb executed. The image is held inline, so a context's
// pending queue (and the epoch buffer's stream) is the only storage a
// capture needs and is reused from fence to fence; the record stays valid
// until drainAll or FinishCrash has consumed it.
type flushRec struct {
	r    *Region
	line int
	seq  uint64 // the capture's number among the line's captures
	n    int    // words captured (LineWords, less on a region's short last line)
	data [LineWords]uint64
}

// words returns the captured image.
func (f *flushRec) words() []uint64 { return f.data[:f.n] }

// Ctx is a per-thread persistence context: it owns the thread's
// persistence-instruction counters, its queue of scheduled-but-not-yet
// durable write-backs (ModeShadow), and its crash-injection state.
// A Ctx must not be used concurrently.
type Ctx struct {
	h  *Heap
	id int // position in the heap's context list; trace track id

	pwbs    uint64
	pfences uint64
	psyncs  uint64

	// pending write-backs issued since the last pfence/psync. Following the
	// behavior of CLWB+SFENCE on ADR platforms (where a retired fence means
	// the flushed data reached the power-fail-protected domain), both pfence
	// and psync make all preceding write-backs durable; within the pending
	// tail write-backs are unordered and a crash may apply any subset.
	pending []flushRec

	// crash injection: when instr reaches crashAt, the instruction panics
	// with CrashError instead of executing. 0 disables.
	crashAt int64
	instr   int64

	sink uint64 // spin-cost accumulator; defeats dead-code elimination

	// ebuf, when non-nil, switches the context to epoch-mode relaxed
	// durability: PWB/PFence/PSync defer into the buffer (and return
	// volatile-fast, uncharged and uncounted — the epoch closer replays and
	// accounts for them) instead of executing on this thread.
	ebuf *EpochBuf
	// epending buffers count-mode deferred line ranges ctx-locally between
	// fences, so the shared buffer takes one lock per fence instead of one
	// per PWB. An operation never returns before its round's fence/psync, so
	// everything a completed operation wrote is merged by return time.
	epending []epochRange

	tracing    bool
	trace      []TraceEvent
	traceStart time.Time
}

// SetEpochBuf attaches (or with nil detaches) an epoch deferral buffer.
func (c *Ctx) SetEpochBuf(b *EpochBuf) { c.ebuf = b }

// Pwbs returns the number of pwb instructions issued on this context.
func (c *Ctx) Pwbs() uint64 { return c.pwbs }

// Pfences returns the number of pfence instructions issued on this context.
func (c *Ctx) Pfences() uint64 { return c.pfences }

// Psyncs returns the number of psync instructions issued on this context.
func (c *Ctx) Psyncs() uint64 { return c.psyncs }

// Instr returns the number of persistence events executed so far (used by
// crash-point sweeps to size the sweep).
func (c *Ctx) Instr() int64 { return c.instr }

// SetCrashAt arranges for the k-th subsequent persistence event (1-based,
// counted from now) to panic with CrashError instead of executing.
// k <= 0 disables injection.
func (c *Ctx) SetCrashAt(k int64) {
	if k <= 0 {
		c.crashAt = 0
		return
	}
	c.crashAt = c.instr + k
}

// event counts one persistence event and fires crash injection — first the
// per-context schedule (SetCrashAt), then the heap-global one
// (SetCrashAtEvent). A global trigger marks the whole heap crashed before
// unwinding, so every other thread's next persistence event (and the
// protocols' spin loops) panic too.
func (c *Ctx) event() {
	if c.h.crashedFlag.Load() {
		panic(CrashError{})
	}
	c.instr++
	if c.crashAt != 0 && c.instr >= c.crashAt {
		panic(CrashError{})
	}
	if c.h.cfg.Mode == ModeShadow {
		n := c.h.events.Add(1)
		if t := c.h.crashAtEvent.Load(); t > 0 && n >= t {
			c.h.crashedFlag.Store(true)
			panic(CrashError{})
		}
		if t := c.h.killAtEvent.Load(); t > 0 && n >= t {
			if f := c.h.killFn; f != nil {
				f() // does not return (self-SIGKILL)
			}
		}
	}
}

// CrashPoint is an explicit crash-injection point for algorithm code that
// wants crash coverage between plain stores (it costs nothing and persists
// nothing). It counts as a persistence event for sweep purposes.
func (c *Ctx) CrashPoint() {
	if c.h.cfg.Mode == ModeVolatile {
		return
	}
	if c.ebuf != nil {
		// Epoch mode: no per-instruction crash scheduling on the fast path,
		// but a crashed heap must still halt the spinning protocols.
		if c.h.crashedFlag.Load() {
			panic(CrashError{})
		}
		return
	}
	c.event()
}

// PWB schedules a write-back of every cache line overlapping words
// [off, off+n) of region r. The line contents are captured now; durability
// happens at the next PSync (or at a crash, subject to the adversary).
func (c *Ctx) PWB(r *Region, off, n int) {
	if c.h.cfg.Mode == ModeVolatile {
		return
	}
	if c.ebuf != nil {
		if c.h.crashedFlag.Load() {
			panic(CrashError{})
		}
		if c.h.cfg.PwbOff {
			return
		}
		if lo, hi := lineRange(off, n); hi >= lo {
			if c.ebuf.count {
				c.epending = append(c.epending, epochRange{r, lo, hi})
			} else {
				c.ebuf.capture(r, lo, hi)
			}
		}
		return
	}
	c.event()
	lo, hi := lineRange(off, n)
	if hi < lo {
		return
	}
	c.pwbs += uint64(hi - lo + 1)
	if c.tracing {
		c.trace = append(c.trace, TraceEvent{
			Kind: TracePwb, Region: r.name, LineLo: lo, LineHi: hi,
			TS:  time.Since(c.traceStart).Nanoseconds(),
			Dur: int64(c.h.cfg.PwbNs) * int64(hi-lo+1),
			Ctx: c.id,
		})
	}
	if c.h.cfg.PwbOff {
		return
	}
	if c.h.cfg.Mode == ModeShadow {
		for li := lo; li <= hi; li++ {
			c.pending = append(c.pending, flushRec{})
			r.captureLine(li, &c.pending[len(c.pending)-1])
		}
	}
	c.charge(c.h.pwbCost, hi-lo+1)
}

// PWBLine schedules a write-back of the single cache line containing word i.
func (c *Ctx) PWBLine(r *Region, i int) { c.PWB(r, i, 1) }

// PFence orders all preceding PWBs on this context before all subsequent
// ones.
func (c *Ctx) PFence() {
	if c.h.cfg.Mode == ModeVolatile {
		return
	}
	if c.ebuf != nil {
		if c.h.crashedFlag.Load() {
			panic(CrashError{})
		}
		if c.ebuf.count {
			c.mergeEpochRanges()
		} else {
			c.ebuf.mark(epFence)
		}
		return
	}
	c.event()
	c.pfences++
	if c.tracing {
		c.trace = append(c.trace, TraceEvent{
			Kind: TracePfence,
			TS:   time.Since(c.traceStart).Nanoseconds(),
			Dur:  int64(c.h.cfg.PfenceNs),
			Ctx:  c.id,
		})
	}
	if c.h.cfg.Mode == ModeShadow {
		c.drainAll()
	}
	c.charge(c.h.pfenceCost, 1)
}

// PSync blocks until every PWB previously issued on this context is durable.
func (c *Ctx) PSync() {
	if c.h.cfg.Mode == ModeVolatile {
		return
	}
	if c.ebuf != nil {
		if c.h.crashedFlag.Load() {
			panic(CrashError{})
		}
		if c.ebuf.count {
			c.mergeEpochRanges()
		} else {
			c.ebuf.mark(epPsync)
		}
		return
	}
	c.event()
	c.psyncs++
	if c.tracing {
		c.trace = append(c.trace, TraceEvent{
			Kind: TracePsync,
			TS:   time.Since(c.traceStart).Nanoseconds(),
			Dur:  int64(c.h.cfg.PsyncNs),
			Ctx:  c.id,
		})
	}
	if c.h.cfg.PsyncOff {
		return
	}
	if c.h.cfg.Mode == ModeShadow {
		c.drainAll()
	}
	c.charge(c.h.psyncCost, 1)
}

// drainAll makes every pending write-back durable. On a file-backed heap
// with a sync mode active, the fence additionally msyncs the pages covering
// the fence's accumulated line set, so fence retirement implies the lines
// reached storage (power-failure durability), not just the page cache.
func (c *Ctx) drainAll() {
	fs := c.h.fs
	syncing := fs != nil && fs.sync != SyncNone
	loW, hiW := 0, 0
	for i := range c.pending {
		f := &c.pending[i]
		f.r.applyShadowLine(f.line, f.words(), f.seq)
		if syncing {
			lo := f.r.fileOff + f.line*LineWords
			hi := lo + f.n
			if hiW == 0 || lo < loW {
				loW = lo
			}
			if hi > hiW {
				hiW = hi
			}
		}
	}
	if syncing && hiW > 0 {
		fs.syncWords(loW, hiW)
	}
	c.pending = c.pending[:0]
}

// charge burns approximately cost*units of calibrated CPU time.
func (c *Ctx) charge(cost spinCost, units int) {
	if cost == 0 {
		return
	}
	s := c.sink
	n := uint64(cost) * uint64(units)
	for i := uint64(0); i < n; i++ {
		s += i ^ (s >> 3)
	}
	c.sink = s
}

// Crashed reports whether a crash has been triggered and not yet recovered.
func (h *Heap) Crashed() bool { return h.crashedFlag.Load() }
