package hashmap

import (
	"math/rand"
	"sync"
	"testing"

	"pcomb/internal/pmem"
)

// shardedOpts is a test's sharded-map configuration, read as
// pcomb.NewShardedMap reads its options: 0 shards = 4, VecCap 0 = 16, and a
// posting board per shard unless Flat.
type shardedOpts struct {
	Shards, Capacity, VecCap int
	Kind                     Kind
	Flat                     bool
}

// newSharded builds (or re-opens) the map pcomb.NewShardedMap builds for o.
func newSharded(h *pmem.Heap, name string, n int, o shardedOpts) *Map {
	mo := Options{Shards: o.Shards, Capacity: o.Capacity, VecCap: o.VecCap, Board: !o.Flat}
	if mo.Shards <= 0 {
		mo.Shards = 4
	}
	if mo.VecCap <= 0 {
		mo.VecCap = 16
	}
	return NewWith(h, name, n, o.Kind, mo)
}

func variants() []struct {
	name string
	opts shardedOpts
} {
	return []struct {
		name string
		opts shardedOpts
	}{
		{"PB-hier", shardedOpts{Shards: 4, Kind: Blocking}},
		{"PB-flat", shardedOpts{Shards: 4, Kind: Blocking, Flat: true}},
		{"PWF-hier", shardedOpts{Shards: 4, Kind: WaitFree}},
		{"PWF-flat", shardedOpts{Shards: 4, Kind: WaitFree, Flat: true}},
	}
}

func TestFabricPutGetDelete(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			m := newSharded(newHeap(), "m", 2, v.opts)
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
			m := newSharded(newHeap(), "m", 1, v.opts)
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
			m := newSharded(newHeap(), "m", threads, o)
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
	o := shardedOpts{Shards: 4}
	m := newSharded(h, "m", 2, o)
	for i := uint64(1); i <= 40; i++ {
		m.Put(0, i, i*10)
		m.Add(1, 1000+i, i)
	}
	m.Close()
	m = newSharded(h, "m", 2, o)
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
		opts shardedOpts
	}{
		{"PB-hier", shardedOpts{Shards: 4, Kind: Blocking}},
		{"PWF-hier", shardedOpts{Shards: 4, Kind: WaitFree}},
	} {
		t.Run(v.name, func(t *testing.T) {
			h := newHeap()
			m := newSharded(h, "m", threads, v.opts)
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
				m = newSharded(h, "m", threads, v.opts)
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
