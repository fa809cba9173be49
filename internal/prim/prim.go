// Package prim provides the low-level synchronization primitives the
// combining protocols are built from: a versioned LL/VL/SC simulation,
// exponential backoff, wait steps, bit-packing helpers, and padded atomics.
//
// The paper's own experiments "simulate an LL on an object O with a read,
// and an SC with a CAS on a timestamped version of O to avoid the ABA
// problem"; Versioned implements exactly that on a single pmem word.
package prim

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// SlotBits is the number of low bits of a versioned word that hold the slot
// index; the remaining high bits hold the ABA stamp.
const SlotBits = 20

const slotMask = (1 << SlotBits) - 1

// PackVersioned packs a slot index and a stamp into one word.
func PackVersioned(slot int, stamp uint64) uint64 {
	return stamp<<SlotBits | uint64(slot)&slotMask
}

// UnpackVersioned splits a versioned word into slot index and stamp.
func UnpackVersioned(v uint64) (slot int, stamp uint64) {
	return int(v & slotMask), v >> SlotBits
}

// Backoff implements randomized exponential backoff with an adaptive upper
// bound, in the style of PSim's BackoffCalculate. Every wait ends in a yield
// of the processor, so spinning code cannot starve the combiner.
type Backoff struct {
	rng   rand.Source64
	limit uint64
	max   uint64
	sink  uint64 // defeats dead-code elimination of the spin loop
}

// NewBackoff returns a Backoff whose waits grow between min and max
// iterations. Seed gives deterministic per-thread sequences.
func NewBackoff(min, max uint64, seed int64) *Backoff {
	if min == 0 {
		min = 16
	}
	if max < min {
		max = min
	}
	return &Backoff{rng: rand.NewSource(seed).(rand.Source64), limit: min, max: max}
}

// Wait spins for a random number of iterations up to the current limit,
// yielding the processor once.
func (b *Backoff) Wait() {
	n := b.rng.Uint64() % b.limit
	sink := uint64(0)
	for i := uint64(0); i < n; i++ {
		sink += i
	}
	b.sink = sink
	runtime.Gosched()
}

// Grow doubles the backoff limit up to max (called after a failed attempt).
func (b *Backoff) Grow() {
	if b.limit*2 <= b.max {
		b.limit *= 2
	}
}

// Pause is a bare yield of the processor. The baselines' wait loops and the
// combining protocols' fixed single-thread wait call it; the protocols' other
// wait loops step a Spin instead.
func Pause() {
	runtime.Gosched()
}

// A spinning Spin busy-waits spinNs per step for its first spinSteps steps,
// then yields.
const (
	spinSteps = 32
	spinNs    = 100
)

// spinCost is one spin step's Burn, calibrated on first use.
var spinCost = sync.OnceValue(func() Cost { return CostForNs(spinNs) })

// Spin is one wait loop's step counter: make one per wait with NewSpin and
// call Wait once per failed check. A yield pays only when the thread being
// waited for needs the waiter's processor; when it has a core of its own, the
// yield is a round trip through the scheduler (its lock, its run queues)
// that lands back in the same loop, so a spinning Spin burns its first steps
// in place and yields only once the wait has outlasted them. A Spin made with
// NewSpin(false) yields on every step, like Pause, which keeps a loop live
// when its threads outnumber the processors.
type Spin struct {
	n int // steps taken, counted up to spinSteps
}

// NewSpin returns a fresh step counter that spins its first steps if spin is
// set and yields on every step otherwise.
func NewSpin(spin bool) Spin {
	if spin {
		return Spin{}
	}
	return Spin{n: spinSteps}
}

// Wait takes one step of the wait: a short spin or a yield.
func (s *Spin) Wait() {
	if s.n < spinSteps {
		s.n++
		Burn(spinCost())
		return
	}
	runtime.Gosched()
}

// Mix is the splitmix64 64-bit finalizer: a full-avalanche mixer spreading
// keys over shards and probe starts. It is the one key-hashing function of
// the repository — the hash map's shard router and each shard's probe start
// both use it, so a key's shard and its probe sequence stay stable across
// layers. The pmem region catalog's checksums are built from it too.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PaddedUint64 is an atomic uint64 alone on its cache line, preventing false
// sharing between per-thread slots.
type PaddedUint64 struct {
	_ [7]uint64
	V atomic.Uint64
	_ [8]uint64
}

// PaddedInt32 is an atomic int32 alone on its cache line.
type PaddedInt32 struct {
	_ [7]uint64
	V atomic.Int32
	_ [8]uint64
}
