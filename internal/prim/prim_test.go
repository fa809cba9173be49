package prim

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(slot uint32, stamp uint64) bool {
		s := int(slot) & ((1 << SlotBits) - 1)
		st := stamp & (1<<(64-SlotBits) - 1)
		gs, gst := UnpackVersioned(PackVersioned(s, st))
		return gs == s && gst == st
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffBounds(t *testing.T) {
	b := NewBackoff(8, 64, 42)
	if b.limit != 8 {
		t.Fatalf("initial limit = %d", b.limit)
	}
	for i := 0; i < 10; i++ {
		b.Grow()
	}
	if b.limit != 64 {
		t.Fatalf("limit after growth = %d, want 64", b.limit)
	}
	b.Wait() // must not hang or panic
}

func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	if b.limit == 0 || b.max < b.limit {
		t.Fatalf("defaults not applied: limit=%d max=%d", b.limit, b.max)
	}
}

// TestSpinSpinsThenYields checks each Spin step's kind on one processor: a
// goroutine made runnable before the wait runs only once a step yields.
// Spinning counters take spinSteps quiet steps first; yielding ones none.
func TestSpinSpinsThenYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spinCost() // calibrate outside the measured steps
	for _, tc := range []struct {
		spin  bool
		quiet int
	}{{true, spinSteps}, {false, 0}} {
		var ran atomic.Bool
		w := NewSpin(tc.spin)
		go ran.Store(true)
		for i := 0; i < tc.quiet; i++ {
			w.Wait()
			if ran.Load() {
				t.Fatalf("spin=%v: step %d yielded, want %d spinning steps", tc.spin, i, tc.quiet)
			}
		}
		// A yield may pick the yielder again (the scheduler's periodic check
		// of the global run queue), so allow a few steps for the goroutine.
		for i := 0; i < 4 && !ran.Load(); i++ {
			w.Wait()
		}
		if !ran.Load() {
			t.Fatalf("spin=%v: no yield after %d steps", tc.spin, tc.quiet)
		}
	}
}
