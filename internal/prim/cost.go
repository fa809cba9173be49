package prim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Cost is a calibrated number of busy-loop iterations approximating a target
// latency. Simulated hardware costs (persistence instructions, cache-line
// transfers) are charged by spinning rather than sleeping: sub-microsecond
// sleeps are impossible, and spinning models CPU-blocking instructions.
type Cost uint64

var (
	calibOnce  sync.Once
	itersPerNs float64
	calibSink  uint64
)

// calibrate measures the host's loop rate as the best of calibRuns short
// runs. One long run would absorb every preemption and interrupt inside its
// window and read the rate low, and every charge of the process would then
// be too cheap; a short run that is interrupted only loses to another run.
func calibrate() {
	const calibRuns, calibIters = 8, 100_000
	best := 0.0
	for range calibRuns {
		var s uint64
		start := time.Now()
		for i := uint64(0); i < calibIters; i++ {
			s += i ^ (s >> 3)
		}
		elapsed := time.Since(start)
		calibSink += s
		if ns := elapsed.Nanoseconds(); ns > 0 {
			best = max(best, float64(calibIters)/float64(ns))
		}
	}
	if best <= 0 {
		best = 1
	}
	itersPerNs = best
}

// CostForNs converts a nanosecond target into loop iterations.
func CostForNs(ns int) Cost {
	calibOnce.Do(calibrate)
	c := Cost(float64(ns) * itersPerNs)
	if ns > 0 && c == 0 {
		c = 1
	}
	return c
}

var burnSink atomic.Uint64

// Burn spins for approximately the given cost.
func Burn(c Cost) {
	s := uint64(1)
	for i := Cost(0); i < c; i++ {
		s += uint64(i) ^ (s >> 3)
	}
	if s == 0 {
		burnSink.Store(s) // unreachable; defeats dead-code elimination
	}
}

// Hot models the cache line of a contended shared variable for cost
// purposes: whenever a different thread touches it than last time, a
// cross-core line transfer is charged. Single-threaded runs never change
// owner and never pay.
type Hot struct {
	owner atomic.Int64
}

// Touch charges tid a line transfer at the given cost if it is not the
// current owner. A zero cost disables charging. The stall burns CPU rather
// than yielding: a combiner's transfer is latency on its critical path, and
// yielding would deschedule lock holders mid-round, which has no hardware
// analogue.
func (h *Hot) Touch(cost Cost, tid int) {
	if cost == 0 {
		return
	}
	me := int64(tid) + 1
	if h.owner.Load() == me {
		return
	}
	h.owner.Store(me)
	Burn(cost)
}

// TouchOther charges tid a transfer when the line's producer was a
// different thread (used when the true owner is recorded out of band, e.g.
// a queue node stamped with its enqueuer).
func TouchOther(cost Cost, owner, tid int) {
	if cost == 0 || owner == tid {
		return
	}
	Burn(cost)
}
