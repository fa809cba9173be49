package heap

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Writers insert ever smaller keys while readers GetMin: the minimum a reader
// sees never rises, Len never falls, a GetMin after the thread's own Insert of
// k returned is at most k, and one started after any thread's Insert of k
// returned is at most k.
func TestReadPathConcurrent(t *testing.T) {
	const writers, readers, per = 2, 2, 200
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			hp := New(newHeap(), "h", writers+readers, k.kind, 2*writers*per, 0)
			var acked atomic.Uint64 // the smallest key an Insert has returned for
			acked.Store(Empty)
			var done atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					defer done.Add(1)
					for i := 0; i < per; i++ {
						key := uint64(1<<20 - 2*i - tid)
						hp.Insert(tid, key)
						if got, ok := hp.GetMin(tid); !ok || got > key {
							t.Errorf("thread %d GetMin = %d,%v after its own Insert(%d) returned", tid, got, ok, key)
							return
						}
						for old := acked.Load(); old > key && !acked.CompareAndSwap(old, key); old = acked.Load() {
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					last, lastLen := Empty, 0
					for done.Load() < writers {
						ceil := acked.Load()
						got, ok := hp.GetMin(tid)
						if !ok {
							got = Empty
						}
						if got > ceil {
							t.Errorf("GetMin = %d started after Insert(%d) had returned", got, ceil)
							return
						}
						if got > last {
							t.Errorf("the minimum rose under inserts alone: %d then %d", last, got)
							return
						}
						last = got
						if n := hp.Len(); n < lastLen {
							t.Errorf("Len fell under inserts alone: %d then %d", lastLen, n)
							return
						} else {
							lastLen = n
						}
						runtime.Gosched() // four goroutines on what may be one core
					}
				}(writers + r)
			}
			wg.Wait()
			if n := hp.Len(); n != writers*per {
				t.Fatalf("Len = %d, want %d", n, writers*per)
			}
		})
	}
}

// GetMin issues no persistence instruction and allocates nothing.
func TestReadPathIssuesNothing(t *testing.T) {
	for _, k := range kinds() {
		t.Run(k.name, func(t *testing.T) {
			h := newHeap()
			hp := New(h, "h", 2, k.kind, 64, 0)
			for i := uint64(1); i <= 20; i++ {
				hp.Insert(0, 100-i)
			}
			stats := h.Stats()
			for i := 0; i < 1000; i++ {
				if got, ok := hp.GetMin(1); !ok || got != 80 {
					t.Fatalf("GetMin = %d,%v", got, ok)
				}
			}
			if got := h.Stats(); got != stats {
				t.Fatalf("1000 GetMins moved the persistence counters from %+v to %+v", stats, got)
			}
			if n := testing.AllocsPerRun(200, func() { hp.GetMin(1) }); n != 0 {
				t.Fatalf("GetMin allocates %v objects", n)
			}
		})
	}
}
