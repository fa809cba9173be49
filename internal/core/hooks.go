package core

import (
	"sync/atomic"

	"pcomb/internal/memmodel"
	"pcomb/internal/obs"
)

// recoverSabotage, when set, makes Recover/RecoverVec skip the re-announce
// and conditional re-perform and hand back whatever the return slot holds —
// the exact bug class (a dropped republish step) the durable-linearizability
// checker exists to catch. Mutation-test use only.
var recoverSabotage atomic.Bool

// SetRecoverSabotage switches the deliberate recovery bug on or off
// (mutation tests verify the history checker rejects the sabotaged run).
func SetRecoverSabotage(on bool) { recoverSabotage.Store(on) }

// publishSabotage, when set, makes psyncPublish publish the durable index
// BEFORE the psync it names — the bug the durable index exists to exclude: a
// reader can then return state a crash rolls back. Mutation-test use only.
var publishSabotage atomic.Bool

// SetPublishSabotage switches the deliberate early publication on or off (the
// read-path litmus verifies the history checker rejects the sabotaged run).
func SetPublishSabotage(on bool) { publishSabotage.Store(on) }

// Probe is everything that can watch a protocol instance, installed with one
// SetProbe call — on the instance, or on a data structure, which forwards it
// to every instance it is built from. The zero Probe watches nothing. Every
// hook site is guarded by one nil check of the field it reports to, so the
// uninstrumented fast path stays unperturbed: no timestamps are read, nothing
// is counted.
type Probe struct {
	// Mem counts shared-memory accesses on the instance's logical cache
	// lines (Table 1).
	Mem *memmodel.Tracker
	// Comb receives combining-level events; obs.CombStats implements it.
	Comb CombTracker
	// Spans records per-op lifecycle spans: publish, backoff, wait-serve,
	// combine and persist phases for every operation. A concrete type, not an
	// interface: the hook sites sit on sub-microsecond paths, and a nil
	// pointer check is the cheapest possible disabled guard.
	Spans *obs.SpanLog
}

// CombTracker observes combining-protocol-level events: rounds and their
// combining degree, operations completed by helping, failed acquisitions,
// StateRec copy churn, and vector sizes.
type CombTracker interface {
	// Round reports a successful combining round by tid serving degree ops.
	Round(tid, degree int)
	// Helped reports an operation by tid served by some other combiner.
	Helped(tid int)
	// LockFail reports a failed combiner-lock CAS by tid (PBcomb).
	LockFail(tid int)
	// SCFail reports a discarded round by tid: failed SC or failed
	// LL validation after copying/serving (PWFcomb).
	SCFail(tid int)
	// Copied reports a StateRec copy of the given word count by tid.
	Copied(tid, words int)
	// BatchSize reports that tid announced a vector of the given size
	// (once per announcement, on the announcing side — combiner-side gathers
	// may observe the same vector several times under PWFcomb's
	// pretend-combiner races).
	BatchSize(tid, size int)
	// ReadFallback reports that a read by tid failed readTries validations
	// in a row, so its caller announces it like an update instead.
	ReadFallback(tid int)
}

// SetProbe installs p in place of whatever was installed before; the zero
// Probe uninstalls. Install while quiescent.
func (c *comb) SetProbe(p Probe) {
	c.mem = nil
	if p.Mem != nil {
		c.mem = memmodel.NewHooks(p.Mem, c.n, c.stWords, c.recWords, c.n)
	}
	c.cstat, c.spans = p.Comb, p.Spans
}

func (c *comb) onBatchSize(tid, size int) {
	if c.cstat != nil {
		c.cstat.BatchSize(tid, size)
	}
}

func (c *comb) onRound(tid, degree int) {
	if c.cstat != nil {
		c.cstat.Round(tid, degree)
	}
}

func (c *comb) onHelped(tid int) {
	if c.cstat != nil {
		c.cstat.Helped(tid)
	}
}

func (c *comb) onLockFail(tid int) {
	if c.cstat != nil {
		c.cstat.LockFail(tid)
	}
}

func (c *comb) onSCFail(tid int) {
	if c.cstat != nil {
		c.cstat.SCFail(tid)
	}
}

func (c *comb) onReadFallback(tid int) {
	if c.cstat != nil {
		c.cstat.ReadFallback(tid)
	}
}

func (c *comb) onCopied(tid, words int) {
	if c.cstat != nil {
		c.cstat.Copied(tid, words)
	}
}

func (c *comb) onLockRead(tid int) {
	if c.mem != nil {
		c.mem.LockRead(tid)
	}
}

func (c *comb) onLockWrite(tid int) {
	if c.mem != nil {
		c.mem.LockWrite(tid)
	}
}

func (c *comb) onReqRead(tid, q int) {
	if c.mem != nil {
		c.mem.ReqRead(tid, q)
	}
}

func (c *comb) onReqWrite(tid, q int) {
	if c.mem != nil {
		c.mem.ReqWrite(tid, q)
	}
}

func (c *comb) onStateRead(tid, off int) {
	if c.mem != nil {
		c.mem.StateRead(tid, off)
	}
}

// onStateWrite records a store to record word off; off < 0 addresses the
// record-index word (MIndex/S).
func (c *comb) onStateWrite(tid, off int) {
	if c.mem != nil {
		c.mem.StateWrite(tid, off)
	}
}

func (c *comb) onRecCopy(tid, src, dst int) {
	if c.mem != nil {
		c.mem.RecCopy(tid, src, dst)
	}
}
