package linearizability_test

// These tests drive the real recoverable structures, record their histories
// with history.Recorder and check them, so they import the structure packages
// and internal/history. They live in the external test package: the
// structures' wrappers and internal/history import this package — an
// in-package test file would close an import cycle.

import (
	"math/rand"
	"sync"
	"testing"

	"pcomb/internal/history"
	. "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
)

// recordQueueHistory drives a real recoverable queue with n goroutines and
// returns the recorded history.
func recordQueueHistory(t *testing.T, kind queue.Kind, n, per int, seed int64) []Op {
	t.Helper()
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
	q := queue.NewOn(h, "lq", n, kind, queue.Options{Capacity: 4096, ChunkSize: 16}, nil, 0)
	rec := history.New(n)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(tid)))
			for i := 0; i < per; i++ {
				if rng.Intn(2) == 0 {
					v := uint64(tid)<<16 | uint64(i) + 1
					rec.Begin(tid, KindEnq, v, 0)
					q.Enqueue(tid, v)
					rec.End(tid, 0)
				} else {
					rec.Begin(tid, KindDeq, 0, 0)
					v, ok := q.Dequeue(tid)
					if !ok {
						v = EmptyOut
					}
					rec.End(tid, v)
				}
			}
		}(tid)
	}
	wg.Wait()
	return rec.Ops()
}

func TestPBQueueHistoriesLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		h := recordQueueHistory(t, queue.Blocking, 3, 4, seed)
		if !Check(QueueModel{}, h) {
			t.Fatalf("seed %d: PBqueue produced a non-linearizable history: %+v", seed, h)
		}
	}
}

func TestPWFQueueHistoriesLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		h := recordQueueHistory(t, queue.WaitFree, 3, 4, seed)
		if !Check(QueueModel{}, h) {
			t.Fatalf("seed %d: PWFqueue produced a non-linearizable history: %+v", seed, h)
		}
	}
}

func TestPBStackHistoriesLinearizable(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
		s := stack.New(h, "ls", 3, stack.Blocking,
			stack.Options{Elimination: true, Recycling: true, Capacity: 4096, ChunkSize: 16})
		rec := history.New(3)
		var wg sync.WaitGroup
		for tid := 0; tid < 3; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*31 + int64(tid)))
				for i := 0; i < 4; i++ {
					if rng.Intn(2) == 0 {
						v := uint64(tid)<<16 | uint64(i) + 1
						rec.Begin(tid, KindEnq, v, 0)
						s.Push(tid, v)
						rec.End(tid, 0)
					} else {
						rec.Begin(tid, KindDeq, 0, 0)
						v, ok := s.Pop(tid)
						if !ok {
							v = EmptyOut
						}
						rec.End(tid, v)
					}
				}
			}(tid)
		}
		wg.Wait()
		if !Check(StackModel{}, rec.Ops()) {
			t.Fatalf("seed %d: PBstack (with elimination) produced a non-linearizable history", seed)
		}
	}
}
