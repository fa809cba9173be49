// Package volatilecomb implements the volatile synchronization baselines the
// paper compares against in Figure 4 and Table 1: CC-Synch and H-Synch
// (Fatourou & Kallimanis, PPoPP'12), PSim (SPAA'11), MCS queue locks, the
// C-BO-MCS cohort lock (Dice et al.), and a plain lock-free CAS loop.
//
// All baselines drive the same sequential object: a StepFn applied to a
// shared word-array state under (the algorithm's notion of) mutual
// exclusion. For the paper's AtomicFloat benchmark the state is one word
// and the step multiplies it by the argument, returning the value read.
package volatilecomb

import (
	"math"
	"sync/atomic"

	"pcomb/internal/memmodel"
	"pcomb/internal/prim"
)

// StepFn is the sequential operation all executors run: it mutates st and
// returns the operation's response. It must be deterministic and touch
// nothing but st.
type StepFn func(st []uint64, arg uint64) uint64

// Executor is a synchronization algorithm executing StepFn invocations that
// must appear atomic.
type Executor interface {
	// Apply runs one operation with the given argument for thread tid.
	Apply(tid int, arg uint64) uint64
	// Name identifies the algorithm in benchmark output.
	Name() string
}

// AtomicFloatStep is the paper's synthetic benchmark operation: read v,
// write v*k, return the bits of v.
func AtomicFloatStep(st []uint64, arg uint64) uint64 {
	old := st[0]
	st[0] = math.Float64bits(math.Float64frombits(old) * math.Float64frombits(arg))
	return old
}

// FetchAddStep adds arg and returns the previous value (used by tests,
// where distinct return values witness atomicity).
func FetchAddStep(st []uint64, arg uint64) uint64 {
	old := st[0]
	st[0] = old + arg
	return old
}

// LockFree executes single-word operations with a CAS retry loop; the step
// function must be a pure function of the single state word.
type LockFree struct {
	st   atomic.Uint64
	step StepFn
	tr   *memmodel.Tracker
	line int
	miss prim.Cost
	hot  prim.Hot
}

// NewLockFree creates the lock-free baseline (single-word state only).
func NewLockFree(initial uint64, step StepFn) *LockFree {
	lf := &LockFree{step: step}
	lf.st.Store(initial)
	return lf
}

// SetMissCost enables coherence-transfer charging (see prim.Hot).
func (l *LockFree) SetMissCost(ns int) { l.miss = prim.CostForNs(ns) }

// SetTracker installs Table 1 instrumentation.
func (l *LockFree) SetTracker(t *memmodel.Tracker) {
	l.tr = t
	if t != nil {
		l.line = t.Register(1, memmodel.ClassState)
	}
}

// Name implements Executor.
func (*LockFree) Name() string { return "lock-free" }

// Apply implements Executor.
func (l *LockFree) Apply(tid int, arg uint64) uint64 {
	var buf [1]uint64
	for {
		l.hot.Touch(l.miss, tid)
		old := l.st.Load()
		if l.tr != nil {
			l.tr.Read(tid, l.line)
		}
		buf[0] = old
		ret := l.step(buf[:], arg)
		if l.st.CompareAndSwap(old, buf[0]) {
			if l.tr != nil {
				l.tr.Write(tid, l.line)
			}
			return ret
		}
		if l.tr != nil {
			l.tr.Write(tid, l.line) // failed CAS still acquires the line
		}
	}
}
