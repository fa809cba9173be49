package hashmap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
)

// batchSpy is a CombTracker that keeps only the delegated vector sizes and
// the tids that announced them: one BatchSize event per board sweep, none for
// a self-served or flat operation.
type batchSpy struct {
	sweeps, largest, maxTid atomic.Int64
}

func (s *batchSpy) Round(int, int)   {}
func (s *batchSpy) Helped(int)       {}
func (s *batchSpy) LockFail(int)     {}
func (s *batchSpy) SCFail(int)       {}
func (s *batchSpy) Copied(int, int)  {}
func (s *batchSpy) ReadFallback(int) {}
func (s *batchSpy) BatchSize(tid, sz int) {
	s.sweeps.Add(1)
	raise(&s.largest, int64(sz))
	raise(&s.maxTid, int64(tid))
}

// raise stores v in w if it exceeds w's value.
func raise(w *atomic.Int64, v int64) {
	for {
		l := w.Load()
		if v <= l || w.CompareAndSwap(l, v) {
			return
		}
	}
}

var hierKinds = []struct {
	name string
	kind Kind
}{{"PB", Blocking}, {"PWF", WaitFree}}

// keysOnShard returns cnt distinct keys that all route to shard sh.
func keysOnShard(m *Map, sh, cnt int) []uint64 {
	var keys []uint64
	for k := uint64(1); len(keys) < cnt; k++ {
		if m.ShardOf(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestFabricStartsNoGoroutine: the combiner is a client that took the role,
// so a strict-mode fabric runs nothing in the background and Close, which has
// nothing to stop, can be called any number of times. Only a rise counts: an
// earlier test's goroutines may still be exiting while this one runs.
func TestFabricStartsNoGoroutine(t *testing.T) {
	for _, v := range hierKinds {
		before := runtime.NumGoroutine()
		m := newSharded(newHeap(), "m", 4, shardedOpts{Shards: 4, Kind: v.kind})
		m.Put(0, 7, 70)
		m.TransferAdd(1, 7, 8, 5)
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%s: %d goroutines before New, %d after", v.name, before, after)
		}
		m.Close()
		m.Close()
		if got, _ := m.Get(2, 7); got != 65 {
			t.Fatalf("%s: get after Close = %d, want 65", v.name, got)
		}
	}
}

// TestSelfServeBehindHeldRole takes a board's sweeper role by hand, as a
// preempted sweeper would hold it: an operation posted behind it must give up
// waiting, reclaim its slot and invoke the shard itself, and once the role is
// free again the same thread must post and sweep normally.
func TestSelfServeBehindHeldRole(t *testing.T) {
	for _, v := range hierKinds {
		t.Run(v.name, func(t *testing.T) {
			m := newSharded(newHeap(), "m", 2, shardedOpts{Shards: 4, Kind: v.kind})
			spy := &batchSpy{}
			m.SetProbe(core.Probe{Comb: spy})
			const key = 11
			b := &m.boards[m.ShardOf(key)]

			b.sweeper.V.Store(1)
			if got := m.Add(0, key, 5); got != 5 {
				t.Fatalf("self-served add = %d, want 5", got)
			}
			if n := spy.sweeps.Load(); n != 0 {
				t.Fatalf("%d sweeps while the role was held, want 0", n)
			}
			if st := b.slots[0].status.Load(); st != slotEmpty {
				t.Fatalf("slot status %d after self-serve, want empty", st)
			}

			b.sweeper.V.Store(0)
			if got := m.Add(0, key, 5); got != 10 {
				t.Fatalf("add after release = %d, want 10", got)
			}
			if n := spy.sweeps.Load(); n != 1 {
				t.Fatalf("%d sweeps after release, want 1", n)
			}
			if b.sweeper.V.Load() != 0 {
				t.Fatal("role still held after the sweep")
			}
		})
	}
}

// parkThenSweep holds b's sweeper role by hand while threads 0..len(keys)-1
// each post an Add of 1 to their key, releases it once all of them are
// parked, and reports whether one sweep then served them all. A poster that
// starts late could find an early one already past selfServeSpins; such an
// attempt proves nothing and reports false.
func parkThenSweep(m *Map, b *board, spy *batchSpy, keys []uint64) bool {
	b.sweeper.V.Store(1)
	sweeps := spy.sweeps.Load()
	var wg sync.WaitGroup
	var finished atomic.Int32
	for tid := range keys {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			m.Add(tid, keys[tid], 1)
			finished.Add(1)
		}(tid)
	}
	for parked := 0; parked < len(keys) && finished.Load() == 0; runtime.Gosched() {
		parked = 0
		for tid := range keys {
			if b.slots[tid].status.Load() == slotPosted {
				parked++
			}
		}
	}
	b.sweeper.V.Store(0)
	wg.Wait()
	return spy.sweeps.Load() == sweeps+1 && spy.largest.Load() == int64(len(keys))
}

// TestParkedPostersServedByOneRound is how a batch forms: every request
// posted while the role is taken belongs to the next sweeper. With the role
// held by hand, n-1 threads post to one shard; on release one of them must
// serve all n-1 in a single delegated round, one psync for the lot.
func TestParkedPostersServedByOneRound(t *testing.T) {
	const n = 5
	for _, v := range hierKinds {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			m := newSharded(h, "m", n, shardedOpts{Shards: 4, Kind: v.kind})
			spy := &batchSpy{}
			m.SetProbe(core.Probe{Comb: spy})
			const sh = 2
			keys := keysOnShard(m, sh, n-1)
			b := &m.boards[sh]

			for attempt := 0; attempt < 20; attempt++ {
				before := h.Stats().Psyncs
				if !parkThenSweep(m, b, spy, keys) {
					continue
				}
				psyncs := h.Stats().Psyncs - before
				if perPsync := float64(n-1) / float64(psyncs); perPsync <= 1 {
					t.Fatalf("%d ops took %d psyncs: ops_per_psync = %.2f, want > 1", n-1, psyncs, perPsync)
				}
				for tid, k := range keys {
					if got, _ := m.Get(tid, k); got != uint64(attempt+1) {
						t.Fatalf("key %d = %d, want %d", k, got, attempt+1)
					}
				}
				return
			}
			t.Fatal("n-1 parked posters were never served by one round")
		})
	}
}

// TestSweepAnnouncesAsSweeper: the thread that takes the role announces the
// sweep under its own tid, its own op among the entries, so the shard's
// reserved last thread slot is never announced. With the role held by hand,
// n-1 threads post to one shard; on release one of them must serve all n-1
// in one round announced under a client tid, and the reserved slot's
// deactivate bit must stay as it was through 100 more sweeps.
func TestSweepAnnouncesAsSweeper(t *testing.T) {
	const n = 5
	for _, v := range hierKinds {
		t.Run(v.name, func(t *testing.T) {
			m := newSharded(newHeap(), "m", n, shardedOpts{Shards: 4, Kind: v.kind})
			spy := &batchSpy{}
			m.SetProbe(core.Probe{Comb: spy})
			const sh = 1
			keys := keysOnShard(m, sh, n-1)
			b := &m.boards[sh]
			reserved := b.inst.DeactParity(n)

			served := false
			for attempt := 0; attempt < 20 && !served; attempt++ {
				served = parkThenSweep(m, b, spy, keys)
			}
			if !served {
				t.Fatal("n-1 parked posters were never served by one round")
			}
			if tid := spy.maxTid.Load(); tid >= n-1 {
				t.Fatalf("a sweep was announced under tid %d, want a poster's (< %d)", tid, n-1)
			}
			if p := b.inst.DeactParity(n); p != reserved {
				t.Fatalf("the parked round flipped the reserved slot's deactivate bit to %d", p)
			}
			for i := 0; i < 100; i++ {
				m.Add(i%(n-1), keys[0], 1)
				if p := b.inst.DeactParity(n); p != reserved {
					t.Fatalf("sweep %d flipped the reserved slot's deactivate bit to %d", i, p)
				}
			}
			if tid := spy.maxTid.Load(); tid >= n-1 {
				t.Fatalf("a sweep was announced under tid %d, want a poster's (< %d)", tid, n-1)
			}
		})
	}
}

// TestCrashWhileSweeperHoldsRole crashes at every persistence event of a
// short multi-threaded run. Strict-mode scalar operations persist only inside
// a sweep, so nearly every crash unwinds a sweeper and leaves its board's role
// held; re-opening rebuilds the boards, and each thread's completed adds plus
// its resolved in-flight one must equal its key's durable value.
func TestCrashWhileSweeperHoldsRole(t *testing.T) {
	const threads, perThread = 3, 4
	for _, v := range hierKinds {
		t.Run(v.name, func(t *testing.T) {
			opts := shardedOpts{Shards: 2, Kind: v.kind}
			held := 0
			for crashAt := int64(1); ; crashAt++ {
				h := newHeap()
				m := newSharded(h, "m", threads, opts)
				h.SetCrashAtEvent(crashAt)
				applied := make([]uint64, threads)
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
						for i := 0; i < perThread; i++ {
							m.Add(tid, uint64(tid)+1, 1)
							applied[tid]++
						}
					}(tid)
				}
				wg.Wait()
				if !h.Crashed() {
					if held == 0 {
						t.Fatal("no crash ever landed inside a sweep")
					}
					t.Logf("%d crash points, %d with a sweeper role left held", crashAt-1, held)
					return
				}
				for s := range m.boards {
					if m.boards[s].sweeper.V.Load() != 0 {
						held++
						break
					}
				}
				h.FinishCrash(pmem.RandomCut, crashAt)
				m = newSharded(h, "m", threads, opts)
				for tid := 0; tid < threads; tid++ {
					applied[tid] += uint64(len(m.Recover(tid)))
				}
				for tid := 0; tid < threads; tid++ {
					if got, _ := m.Get(tid, uint64(tid)+1); got != applied[tid] {
						t.Fatalf("crashAt %d tid %d: value %d, want %d", crashAt, tid, got, applied[tid])
					}
				}
				if crashAt > 10000 {
					t.Fatal("enumeration did not terminate")
				}
			}
		})
	}
}

// TestFabricAllocFree is the allocation gate of the hierarchical operation
// path: post, sweep, delegated round and the transaction scratch allocate
// nothing, for both protocols.
func TestFabricAllocFree(t *testing.T) {
	for _, v := range hierKinds {
		m := newSharded(newHeap(), "m", 2, shardedOpts{Shards: 4, Kind: v.kind, Capacity: 1024})
		for k := uint64(1); k <= 64; k++ {
			m.Put(0, k, 1000)
		}
		i := uint64(0)
		for name, op := range map[string]func(k uint64){
			"Get":         func(k uint64) { m.Get(1, k) },
			"Add":         func(k uint64) { m.Add(1, k, 1) },
			"Put":         func(k uint64) { m.Put(1, k, k) },
			"TransferAdd": func(k uint64) { m.TransferAdd(1, k, k%64+1, 1) },
		} {
			if a := testing.AllocsPerRun(200, func() { i++; op(i%64 + 1) }); a != 0 {
				t.Errorf("%s %s: %.1f allocations per call, want 0", v.name, name, a)
			}
		}
	}
}

// BenchmarkFabricHop is the board's layer benchmark: one Add per iteration
// on a 4-shard fabric under the simulated persistence cost, through the
// posting board and directly (Flat), at 1, 2 and 8 goroutines. ns/op against
// the Flat row is the cost of the hop; ops/psync is what the hop buys.
func BenchmarkFabricHop(b *testing.B) {
	const keys = 2048
	for _, v := range hierKinds {
		for _, flat := range []bool{false, true} {
			for _, threads := range []int{1, 2, 8} {
				mode := "hier"
				if flat {
					mode = "flat"
				}
				b.Run(fmt.Sprintf("%s-%s/%d", v.name, mode, threads), func(b *testing.B) {
					h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow})
					m := newSharded(h, "m", threads, shardedOpts{Shards: 4, Kind: v.kind, Flat: flat, Capacity: 4 * keys})
					for k := uint64(1); k <= keys; k++ {
						m.Put(0, k, 1)
					}
					psyncs := h.Stats().Psyncs
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for tid := 0; tid < threads; tid++ {
						cnt := b.N / threads
						if tid < b.N%threads {
							cnt++
						}
						wg.Add(1)
						go func(tid, cnt int) {
							defer wg.Done()
							k := uint64(tid) * 977
							for i := 0; i < cnt; i++ {
								k = k*6364136223846793005 + 1442695040888963407
								m.Add(tid, k>>33%keys+1, 1)
							}
						}(tid, cnt)
					}
					wg.Wait()
					b.StopTimer()
					if d := h.Stats().Psyncs - psyncs; d > 0 {
						b.ReportMetric(float64(b.N)/float64(d), "ops/psync")
					}
				})
			}
		}
	}
}
