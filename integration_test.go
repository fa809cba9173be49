package pcomb

import (
	"math/rand"
	"sync"
	"testing"

	"pcomb/internal/pmem"
)

// TestIntegrationAllStructuresOneHeap runs a queue, a stack, a heap, a map,
// and a custom object side by side on one simulated NVMM device, under
// concurrent load, through a mid-flight crash, and verifies that every
// structure recovers independently and consistently — the "whole device"
// scenario a real application would face.
func TestIntegrationAllStructuresOneHeap(t *testing.T) {
	const threads = 4
	sys := New(Options{CrashTesting: true, NoCost: true})

	open := func() (*Queue, *Stack, *Heap, *Map, *Recoverable) {
		return sys.NewQueue("it-q", threads, Blocking),
			sys.NewStack("it-s", threads, WaitFree),
			sys.NewHeap("it-h", threads, Blocking, 256),
			sys.NewMap("it-m", threads, Blocking, MapOptions{Shards: 4, Capacity: 1024}),
			sys.NewObject("it-c", threads, WaitFree, counterObj{})
	}
	q, st, hp, m, cnt := open()

	var produced, popped, inserted, counted [4]int
	run := func(budget int) {
		var wg sync.WaitGroup
		for tid := 0; tid < threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(pmem.CrashError); !ok {
							panic(r)
						}
					}
				}()
				rng := rand.New(rand.NewSource(int64(tid) + 77))
				for i := 0; i < budget; i++ {
					v := uint64(tid)<<32 | uint64(i) + 1
					switch rng.Intn(5) {
					case 0:
						q.Enqueue(tid, v)
						produced[tid]++
					case 1:
						st.Push(tid, v)
						popped[tid]++
					case 2:
						if hp.Insert(tid, v&0xffff+1) {
							inserted[tid]++
						}
					case 3:
						m.Put(tid, v, v*3)
					case 4:
						cnt.Invoke(tid, 1, 1, 0)
						counted[tid]++
					}
				}
			}(tid)
		}
		wg.Wait()
	}

	run(200)
	preQ, preS, preH, preM := q.Len(), st.Len(), hp.Len(), m.Len()
	preC := cnt.State().Load(0)

	// Crash at quiescence first: everything must survive bit-for-bit.
	sys.Crash(RandomCut, 3)
	q, st, hp, m, cnt = open()
	for tid := 0; tid < threads; tid++ {
		q.Recover(tid)
		st.Recover(tid)
		hp.Recover(tid)
		m.Recover(tid)
		cnt.Recover(tid)
	}
	if q.Len() != preQ || st.Len() != preS || hp.Len() != preH || m.Len() != preM {
		t.Fatalf("quiescent crash lost data: q %d/%d s %d/%d h %d/%d m %d/%d",
			q.Len(), preQ, st.Len(), preS, hp.Len(), preH, m.Len(), preM)
	}
	if cnt.State().Load(0) != preC {
		t.Fatalf("counter %d, want %d", cnt.State().Load(0), preC)
	}

	// Now crash mid-flight and verify the weaker-but-sufficient properties:
	// every structure recovers to a consistent state and keeps operating.
	go sys.Heap().TriggerCrash()
	run(200)
	sys.Heap().FinishCrash(RandomCut, 9)
	q, st, hp, m, cnt = open()
	for tid := 0; tid < threads; tid++ {
		q.Recover(tid)
		st.Recover(tid)
		hp.Recover(tid)
		m.Recover(tid)
		cnt.Recover(tid)
	}

	// All structures must still work after recovery.
	q.Enqueue(0, 424242)
	found := false
	for {
		v, ok := q.Dequeue(1)
		if !ok {
			break
		}
		if v == 424242 {
			found = true
		}
	}
	if !found {
		t.Fatal("queue broken after mid-flight crash recovery")
	}
	st.Push(0, 99)
	if v, ok := st.Pop(0); !ok || v != 99 {
		t.Fatal("stack broken after recovery")
	}
	hp.Insert(0, 1) // 1 is below any inserted key (keys are v&0xffff+1 >= 2... not necessarily; just check it drains sorted)
	prev := uint64(0)
	for {
		v, ok := hp.DeleteMin(0)
		if !ok {
			break
		}
		if v < prev {
			t.Fatal("heap order broken after recovery")
		}
		prev = v
	}
	m.Put(0, 5555, 1)
	if v, ok := m.Get(1, 5555); !ok || v != 1 {
		t.Fatal("map broken after recovery")
	}
	before := cnt.State().Load(0)
	cnt.Invoke(0, 1, 1, 0)
	if cnt.State().Load(0) != before+1 {
		t.Fatal("counter broken after recovery")
	}
}

// TestIntegrationManyCrashGenerations hammers one queue through many
// crash/recover generations, accumulating operations across all of them.
func TestIntegrationManyCrashGenerations(t *testing.T) {
	sys := New(Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("gen-q", 2, Blocking)
	total := 0
	for gen := 0; gen < 10; gen++ {
		for i := 0; i < 20; i++ {
			q.Enqueue(0, uint64(gen)<<32|uint64(i)+1)
			total++
		}
		if gen%2 == 1 {
			if _, ok := q.Dequeue(1); ok {
				total--
			}
		}
		policy := []CrashPolicy{DropUnfenced, ApplyAll, RandomCut}[gen%3]
		sys.Crash(policy, int64(gen))
		q = sys.NewQueue("gen-q", 2, Blocking)
		for tid := 0; tid < 2; tid++ {
			q.Recover(tid)
		}
		if q.Len() != total {
			t.Fatalf("gen %d: len %d, want %d", gen, q.Len(), total)
		}
	}
}

// TestSoak is a longer mixed workload with periodic crashes; skipped in
// -short mode.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const threads = 8
	sys := New(Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("soak-q", threads, Blocking)
	m := sys.NewMap("soak-m", threads, WaitFree, MapOptions{Shards: 4, Capacity: 1 << 14})

	var inQueue sync.Map
	for gen := 0; gen < 6; gen++ {
		var wg sync.WaitGroup
		for tid := 0; tid < threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(pmem.CrashError); !ok {
							panic(r)
						}
					}
				}()
				rng := rand.New(rand.NewSource(int64(gen*threads + tid)))
				for i := 0; i < 500; i++ {
					v := uint64(gen)<<40 | uint64(tid)<<32 | uint64(i) + 1
					switch rng.Intn(4) {
					case 0:
						// Record intent first: a concurrent dequeuer may
						// consume v before Enqueue even returns here.
						inQueue.Store(v, true)
						q.Enqueue(tid, v)
					case 1:
						if got, ok := q.Dequeue(tid); ok {
							if _, was := inQueue.LoadAndDelete(got); !was {
								t.Errorf("gen %d: dequeued unknown value %x", gen, got)
							}
						}
					case 2:
						m.Put(tid, v, v)
					case 3:
						m.Get(tid, v)
					}
				}
			}(tid)
		}
		if gen%2 == 1 {
			go sys.Heap().TriggerCrash()
		}
		wg.Wait()
		if sys.Heap().Crashed() {
			sys.Heap().FinishCrash(RandomCut, int64(gen))
			q = sys.NewQueue("soak-q", threads, Blocking)
			m = sys.NewMap("soak-m", threads, WaitFree, MapOptions{Shards: 4, Capacity: 1 << 14})
			for tid := 0; tid < threads; tid++ {
				for _, r := range q.Recover(tid) {
					if r.Op == OpDequeue && r.Result != Empty {
						if _, was := inQueue.LoadAndDelete(r.Result); !was {
							t.Errorf("gen %d: recovered dequeue of unknown value %x", gen, r.Result)
						}
					}
				}
				m.Recover(tid)
			}
			// Values whose enqueue was interrupted may or may not be in the
			// queue; reconcile the oracle with reality.
			present := map[uint64]bool{}
			for _, v := range q.Snapshot() {
				present[v] = true
			}
			inQueue.Range(func(k, _ any) bool {
				if !present[k.(uint64)] {
					inQueue.Delete(k) // its enqueue never completed nor recovered-applied
				}
				return true
			})
			for v := range present {
				inQueue.Store(v, true)
			}
		}
	}
	// Drain: every remaining value must be known.
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		if _, was := inQueue.LoadAndDelete(v); !was {
			t.Fatalf("drained unknown value %x", v)
		}
	}
}
