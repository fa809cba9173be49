package harness

import (
	"fmt"
	"math/rand"

	"pcomb/internal/fabric"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// shardKeyspace is the FigShard key domain (keys 1..shardKeyspace).
const shardKeyspace = 4096

// shardOp is the FigShard operation mix over one fabric: 50% Get, 25% Put,
// 25% Add, keys drawn from z (uniform when s=0, hot-key when s=0.99).
func shardOp(m *fabric.Map, z *Zipf) OpFunc {
	return func(tid int, i uint64, rng *rand.Rand) {
		key := z.Next(rng) + 1
		switch i % 4 {
		case 0, 2:
			m.Get(tid, key)
		case 1:
			m.Put(tid, key, i+1)
		default:
			m.Add(tid, key, 1)
		}
	}
}

func shardAlgo(shards int, flat bool, skew float64, groups map[string]*obs.CombGroup) Algo {
	kind := "fabric"
	if flat {
		kind = "flat"
	}
	name := fmt.Sprintf("%s-%dsh", kind, shards)
	if skew > 0 {
		name = fmt.Sprintf("%s-z%.2f", name, skew)
	}
	return Algo{
		Name: name,
		Build: func(cfg Config, n int) (*pmem.Heap, OpFunc) {
			h := newHeap(cfg)
			// Capacity must cover the whole key domain regardless of the shard
			// count under comparison, or small-shard points measure table-full
			// rejections instead of map operations.
			m := fabric.New(h, "f", n, fabric.Options{
				Shards: shards, Flat: flat, Capacity: 2 * shardKeyspace,
			})
			if cfg.obsM != nil {
				// Per-shard degree visibility on top of the point's merged
				// sink: the hot shard's batch size is the figure's whole
				// question, and a fabric-level mean hides it.
				groups[fmt.Sprintf("%s/%d", name, n)] = m.ShardStats(cfg.probe())
			} else {
				m.SetProbe(cfg.probe())
			}
			return h, shardOp(m, NewZipf(shardKeyspace, skew))
		},
	}
}

// FigShard is the sharded-fabric scaling figure: throughput across thread
// counts for every (shard count × skew) combination, with the hierarchical
// fabric against the flat (naive-split, no posting board) router over the
// same shards. Under skew the hot shards serialize either way; the
// hierarchical fabric's sweeping client turns the pile-up into large
// combining rounds (watch "comb-degree-mean" with Config.Metrics), the flat
// split leaves it as per-shard contention.
func FigShard(cfg Config, shardList []int, skews []float64) []Series {
	groups := map[string]*obs.CombGroup{}
	var algos []Algo
	for _, s := range skews {
		for _, k := range shardList {
			algos = append(algos, shardAlgo(k, false, s, groups))
			algos = append(algos, shardAlgo(k, true, s, groups))
		}
	}
	// Fold per-shard views into each point's Extra: the busiest shard's mean
	// combining degree ("shard-degree-hot") is the criterion the hierarchical
	// mode is judged on, and the round imbalance shows how skew concentrates.
	// The fold wraps OnPoint rather than running after the sweep: runSweep
	// streams every Result to OnPoint (the CLI's JSONL writer) the moment it
	// completes, so a post-sweep fold would reach the returned series but
	// never the exported artifact. The Extra map is shared with the series
	// copy, so the wrapper's writes show up in both.
	inner := cfg.OnPoint
	cfg.OnPoint = func(p Result) {
		if g, ok := groups[fmt.Sprintf("%s/%d", p.Algorithm, p.Threads)]; ok && p.Extra != nil {
			var hotOps, totRounds, maxRounds uint64
			var hotDeg float64
			for _, cs := range g.ChildSnapshots() {
				if cs.CombinedOps > hotOps {
					hotOps, hotDeg = cs.CombinedOps, cs.MeanDegree
				}
				totRounds += cs.Rounds
				if cs.Rounds > maxRounds {
					maxRounds = cs.Rounds
				}
			}
			if hotOps > 0 {
				p.Extra["shard-degree-hot"] = hotDeg
				p.Extra["shard-ops-hot-frac"] = float64(hotOps) / float64(p.Ops)
			}
			if totRounds > 0 {
				p.Extra["shard-rounds-hot-frac"] = float64(maxRounds) / float64(totRounds)
			}
		}
		if inner != nil {
			inner(p)
		}
	}
	return runSweep(cfg, algos)
}
