package fabric

import (
	"math/rand"
	"sync"
	"testing"

	"pcomb/internal/pmem"
	"pcomb/internal/queue"
)

func newHeap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
}

func variants() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"PB-hier", Options{Shards: 4, Kind: Blocking}},
		{"PB-flat", Options{Shards: 4, Kind: Blocking, Flat: true}},
		{"PWF-hier", Options{Shards: 4, Kind: WaitFree}},
		{"PWF-flat", Options{Shards: 4, Kind: WaitFree, Flat: true}},
	}
}

func TestFabricPutGetDelete(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			m := New(newHeap(), "m", 2, v.opts)
			defer m.Close()
			if _, ok := m.Get(0, 7); ok {
				t.Fatal("get of absent key")
			}
			if prev, existed := m.Put(0, 7, 70); existed || prev != NotFound {
				t.Fatalf("fresh put = %d,%v", prev, existed)
			}
			if val, ok := m.Get(1, 7); !ok || val != 70 {
				t.Fatalf("get = %d,%v", val, ok)
			}
			if prev, existed := m.Put(1, 7, 71); !existed || prev != 70 {
				t.Fatalf("overwrite = %d,%v", prev, existed)
			}
			if got := m.Add(0, 9, 5); got != 5 {
				t.Fatalf("fresh add = %d", got)
			}
			if got := m.Add(1, 9, ^uint64(0)); got != 4 { // -1
				t.Fatalf("add -1 = %d", got)
			}
			if val, ok := m.Delete(0, 7); !ok || val != 71 {
				t.Fatalf("delete = %d,%v", val, ok)
			}
			if m.Len() != 1 {
				t.Fatalf("len = %d", m.Len())
			}
		})
	}
}

// TestFabricOracle drives a random single-threaded op sequence against Go's
// built-in map through the hierarchical path (every op crosses the posting
// board and is served by its own sweep).
func TestFabricOracle(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			m := New(newHeap(), "m", 1, v.opts)
			defer m.Close()
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 3000; i++ {
				key := uint64(rng.Intn(97)) + 1
				val := uint64(rng.Intn(1 << 20))
				switch rng.Intn(4) {
				case 0:
					prev, existed := m.Put(0, key, val)
					want, wantEx := oracle[key]
					if existed != wantEx || (existed && prev != want) {
						t.Fatalf("put %d: %d,%v want %d,%v", key, prev, existed, want, wantEx)
					}
					oracle[key] = val
				case 1:
					got, ok := m.Get(0, key)
					want, wantOk := oracle[key]
					if ok != wantOk || (ok && got != want) {
						t.Fatalf("get %d: %d,%v want %d,%v", key, got, ok, want, wantOk)
					}
				case 2:
					got, ok := m.Delete(0, key)
					want, wantOk := oracle[key]
					if ok != wantOk || (ok && got != want) {
						t.Fatalf("del %d: %d,%v want %d,%v", key, got, ok, want, wantOk)
					}
					delete(oracle, key)
				case 3:
					got := m.Add(0, key, val)
					oracle[key] += val
					if oracle[key] != got {
						t.Fatalf("add %d: %d want %d", key, got, oracle[key])
					}
				}
			}
			if m.Len() != len(oracle) {
				t.Fatalf("len = %d, want %d", m.Len(), len(oracle))
			}
		})
	}
}

// TestFabricConcurrent has every thread own a distinct key range; the final
// contents must reflect each thread's last writes exactly.
func TestFabricConcurrent(t *testing.T) {
	const threads, perThread = 6, 300
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			o := v.opts
			o.Capacity = 4096
			m := New(newHeap(), "m", threads, o)
			defer m.Close()
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < perThread; i++ {
						key := uint64(tid)<<32 | uint64(i%50) + 1
						m.Put(tid, key, uint64(i))
						m.Get(tid, key)
						m.Add(tid, key|1<<62, 1)
					}
				}(tid)
			}
			wg.Wait()
			for tid := 0; tid < threads; tid++ {
				for i := 0; i < 50; i++ {
					key := uint64(tid)<<32 | uint64(i) + 1
					want := uint64(perThread - 50 + i)
					if got, ok := m.Get(0, key); !ok || got != want {
						t.Fatalf("tid %d key %d: got %d,%v want %d", tid, key, got, ok, want)
					}
					if got, _ := m.Get(0, key|1<<62); got != perThread/50 {
						t.Fatalf("add-counter key of tid %d: %d want %d", tid, got, perThread/50)
					}
				}
			}
		})
	}
}

// TestFabricReopen closes a hierarchical fabric and re-opens it: the
// sweeper tid's announcement parity chains (seeded from the durable deactivate
// bits) and the per-thread counters must line up so operations keep working.
func TestFabricReopen(t *testing.T) {
	h := newHeap()
	o := Options{Shards: 4}
	m := New(h, "m", 2, o)
	for i := uint64(1); i <= 40; i++ {
		m.Put(0, i, i*10)
		m.Add(1, 1000+i, i)
	}
	m.Close()
	m = New(h, "m", 2, o)
	defer m.Close()
	for i := uint64(1); i <= 40; i++ {
		if v, ok := m.Get(1, i); !ok || v != i*10 {
			t.Fatalf("key %d after reopen: %d,%v", i, v, ok)
		}
		if v := m.Add(0, 1000+i, 1); v != i+1 {
			t.Fatalf("add key %d after reopen: %d want %d", 1000+i, v, i+1)
		}
	}
}

// TestFabricScalarCrashExactlyOnce crashes a hierarchical fabric mid-run and
// checks the core detectability contract: each thread's completed op count
// plus its resolved in-flight op equals its key's durable value, for every
// crash generation.
func TestFabricScalarCrashExactlyOnce(t *testing.T) {
	const threads = 4
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"PB-hier", Options{Shards: 4, Kind: Blocking}},
		{"PWF-hier", Options{Shards: 4, Kind: WaitFree}},
	} {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			m := New(h, "m", threads, v.opts)
			applied := make([]uint64, threads) // ops known to have taken effect
			for gen := 0; gen < 5; gen++ {
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
						for i := 0; i < 400; i++ {
							m.Add(tid, uint64(tid)+1, 1)
							applied[tid]++
						}
					}(tid)
				}
				if gen%2 == 1 {
					go h.TriggerCrash()
				}
				wg.Wait()
				m.Close()
				h.FinishCrash(pmem.RandomCut, int64(gen))
				m = New(h, "m", threads, v.opts)
				for tid := 0; tid < threads; tid++ {
					for _, r := range m.Recover(tid) {
						if r.Op != OpAdd {
							t.Fatalf("recovered op %x, want OpAdd", r.Op)
						}
						applied[tid]++
					}
				}
				for tid := 0; tid < threads; tid++ {
					got, _ := m.Get(0, uint64(tid)+1)
					if got != applied[tid] {
						t.Fatalf("gen %d tid %d: value %d, want %d", gen, tid, got, applied[tid])
					}
				}
			}
			m.Close()
		})
	}
}

func TestFabricCounter(t *testing.T) {
	const threads = 4
	h := newHeap()
	c := NewCounter(h, "c", threads, Blocking, 2)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Add(tid, 1)
			}
		}(tid)
	}
	wg.Wait()
	if v := c.Value(); v != threads*500 {
		t.Fatalf("value = %d, want %d", v, threads*500)
	}
	// Crash at quiescence: value must survive and recovery be a no-op.
	h.Crash(pmem.RandomCut, 1)
	c = NewCounter(h, "c", threads, Blocking, 2)
	for tid := 0; tid < threads; tid++ {
		if c.Recover(tid) != nil {
			t.Fatalf("tid %d pending after quiescent crash", tid)
		}
	}
	if v := c.Value(); v != threads*500 {
		t.Fatalf("value after crash = %d, want %d", v, threads*500)
	}
}

// TestFabricCounterCrashExactlyOnce mirrors the map test for the counter
// sharding: completed + resolved-pending adds must equal the durable sum.
func TestFabricCounterCrashExactlyOnce(t *testing.T) {
	const threads = 4
	h := newHeap()
	c := NewCounter(h, "c", threads, Blocking, 2)
	var applied uint64
	for gen := 0; gen < 4; gen++ {
		done := make([]uint64, threads)
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
				for i := 0; i < 300; i++ {
					c.Add(tid, 1)
					done[tid]++
				}
			}(tid)
		}
		if gen%2 == 1 {
			go h.TriggerCrash()
		}
		wg.Wait()
		h.FinishCrash(pmem.RandomCut, int64(gen))
		c = NewCounter(h, "c", threads, Blocking, 2)
		for tid := 0; tid < threads; tid++ {
			applied += done[tid]
			applied += uint64(len(c.Recover(tid)))
		}
		if v := c.Value(); v != applied {
			t.Fatalf("gen %d: value %d, want %d", gen, v, applied)
		}
	}
}

func TestFabricQueue(t *testing.T) {
	const threads = 4
	h := newHeap()
	q := NewQueue(h, "q", threads, queue.Blocking, 3, queue.Options{Capacity: 1 << 12})
	var wg sync.WaitGroup
	const perThread = 200
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				q.Enqueue(tid, uint64(tid)<<32|uint64(i)+1)
			}
		}(tid)
	}
	wg.Wait()
	if q.Len() != threads*perThread {
		t.Fatalf("len = %d, want %d", q.Len(), threads*perThread)
	}
	// Relaxed FIFO: ordering is per sub-queue only, so check the global
	// multiset property — every enqueued element comes out exactly once.
	seen := map[uint64]bool{}
	count := 0
	for {
		v, ok := q.Dequeue(0)
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("duplicate element %d", v)
		}
		seen[v] = true
		count++
	}
	if count != threads*perThread {
		t.Fatalf("drained %d, want %d", count, threads*perThread)
	}

	// Quiescent crash: nothing lost.
	q.Enqueue(0, 777)
	h.Crash(pmem.RandomCut, 5)
	q = NewQueue(h, "q", threads, queue.Blocking, 3, queue.Options{Capacity: 1 << 12})
	for tid := 0; tid < threads; tid++ {
		q.Recover(tid)
	}
	if v, ok := q.Dequeue(1); !ok || v != 777 {
		t.Fatalf("dequeue after crash = %d,%v", v, ok)
	}
}
