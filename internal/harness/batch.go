package harness

import (
	"fmt"
	"math/rand"

	"pcomb/internal/hashmap"
	"pcomb/internal/pmem"
)

// benchMapBatch builds a single-shard sparse hash map driven through the
// async Submit/Flush path with vector capacity vcap (vcap < 2 = the scalar
// blocking API, the baseline). One shard keeps every flushed vector whole —
// no per-shard regrouping — so the figure isolates what batching itself buys:
// fewer slot toggles, fewer combining rounds, and persistence cost amortized
// over vcap operations per announcement.
func benchMapBatch(kind hashmap.Kind, vcap int) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		m := hashmap.NewWith(h, "m", n, kind, hashmap.Options{
			Shards: 1, Capacity: 512, VecCap: vcap,
		})
		m.SetProbe(cfg.probe())
		if vcap < 2 {
			return h, func(tid int, i uint64, rng *rand.Rand) {
				key := uint64(rng.Intn(256)) + 1
				if i%2 == 0 {
					m.Put(tid, key, i+1)
				} else {
					m.Get(tid, key)
				}
			}
		}
		return h, func(tid int, i uint64, rng *rand.Rand) {
			key := uint64(rng.Intn(256)) + 1
			if i%2 == 0 {
				m.SubmitPut(tid, key, i+1)
			} else {
				m.SubmitGet(tid, key)
			}
		}
	}
}

// FigBatch sweeps vectorized-announcement batch size × thread count on the
// hash map for both protocols. Run with Metrics on: the interesting columns
// are pwbs/op and comb-rounds/op (both should fall roughly linearly in the
// batch size — each announcement now carries up to b operations) and
// batch-size-mean (the batch-size distribution the combiner actually saw).
// A batch entry of 1 measures the scalar blocking API as the baseline.
func FigBatch(cfg Config, batches []int) []Series {
	var algos []Algo
	for _, b := range batches {
		algos = append(algos,
			Algo{fmt.Sprintf("PBmap-b%d", b), benchMapBatch(hashmap.Blocking, b)},
			Algo{fmt.Sprintf("PWFmap-b%d", b), benchMapBatch(hashmap.WaitFree, b)},
		)
	}
	return runSweep(cfg, algos)
}
