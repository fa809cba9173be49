package pmem

import "pcomb/internal/prim"

// HotWord models the cache line of a contended shared variable for cost
// purposes: whenever a different thread touches it than last time, the line
// must be transferred between cores, which on the paper's 48-core testbed
// costs on the order of a hundred nanoseconds. Algorithms place Touch calls
// on their coherence hot spots (locks, queue head/tail words, announcement
// slots); single-threaded runs never change owner and thus never pay,
// reproducing the paper's low-thread-count crossovers.
//
// This is the throughput-cost counterpart of the memmodel package's Table 1
// counters: memmodel counts logical misses, HotWord charges their time.
type HotWord = prim.Hot

// DefaultMissNs approximates a contended cross-core cache-line transfer,
// including the queuing delay such lines exhibit at high thread counts
// (uncontended transfers are ~100ns; contended hot words are several times
// that on multi-socket machines).
const DefaultMissNs = 300

// Touch charges tid a line transfer if it is not the word's current owner.
func (h *Heap) Touch(w *HotWord, tid int) {
	w.Touch(h.missCost, tid)
}

// MissCost exposes the calibrated transfer cost (for code that records the
// true line producer out of band; see prim.TouchOther).
func (h *Heap) MissCost() prim.Cost { return h.missCost }
