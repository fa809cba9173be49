package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"pcomb/internal/hashmap"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// epochSample is one sampled operation: the open-epoch label read after the
// operation returned and the wall-clock instant of that return. Joined with
// the closer's CloseTimes log it yields the resolve-at-close latency — how
// long a caller who insisted on durability (Wait) would have blocked.
type epochSample struct {
	label uint64
	at    time.Time
}

// FigEpoch is the epoch-mode relaxed-durability figure: the single-shard map
// of FigBatch under a Put-only workload — every operation dirties slot lines,
// so persistence is the dominant cost group commit can actually amortize
// (reads would dilute the comparison without exercising either mode) —
// strict per-round durability (scalar and b32 vectorized) against Epoch(d)
// group commit for each close cadence d (in µs). Epoch points carry the
// resolve-at-close latency quantiles in Extra ("resolve-p50-ns",
// "resolve-p99-ns", "resolve-max-ns") — the bounded loss window made
// measurable: throughput tells what volatile-fast returns buy, resolve-p99
// tells what a caller pays to wait for durability instead.
func FigEpoch(cfg Config, ds []int) []Series {
	out := runSweep(cfg, []Algo{
		{"PBmap-strict-b1", benchMapPuts(hashmap.Blocking, 1)},
		{"PBmap-strict-b32", benchMapPuts(hashmap.Blocking, 32)},
		{"PWFmap-strict-b32", benchMapPuts(hashmap.WaitFree, 32)},
	})
	kinds := []struct {
		name string
		kind hashmap.Kind
	}{
		{"PBmap", hashmap.Blocking},
		{"PWFmap", hashmap.WaitFree},
	}
	for _, k := range kinds {
		for _, d := range ds {
			for _, vcap := range []int{1, 32} {
				name := fmt.Sprintf("%s-ep%d", k.name, d)
				if vcap > 1 {
					name = fmt.Sprintf("%s-b%d", name, vcap)
				}
				s := Series{Name: name}
				for _, n := range cfg.Threads {
					res := measureEpochPoint(cfg, k.kind, s.Name, n,
						time.Duration(d)*time.Microsecond, vcap)
					s.Points = append(s.Points, res)
					if cfg.OnPoint != nil {
						cfg.OnPoint(res)
					}
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// benchMapPuts is benchMapBatch under FigEpoch's Put-only workload: the
// strict-mode baselines the epoch points are compared against.
func benchMapPuts(kind hashmap.Kind, vcap int) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		m := hashmap.NewWith(h, "m", n, kind, hashmap.Options{
			Shards: 1, Capacity: 512, VecCap: vcap,
		})
		m.SetProbe(cfg.probe())
		if vcap < 2 {
			return h, func(tid int, i uint64, rng *rand.Rand) {
				m.Put(tid, uint64(rng.Intn(256))+1, i+1)
			}
		}
		return h, func(tid int, i uint64, rng *rand.Rand) {
			m.SubmitPut(tid, uint64(rng.Intn(256))+1, i+1)
		}
	}
}

// measureEpochPoint runs one epoch-mode point: the scalar map workload with
// the background closer ticking every d, sampling every 32nd operation's
// (epoch label, return instant). After the run the final Stop close
// guarantees every label a covering close, and the join computes the
// durability latency each sample would have seen from Wait.
func measureEpochPoint(cfg Config, kind hashmap.Kind, name string, n int, d time.Duration, vcap int) Result {
	runtime.GC() // same inter-point hygiene as runSweep
	pcfg := cfg
	var met *obs.Metrics
	if cfg.Metrics {
		met = obs.NewMetrics(n)
		pcfg.obsM = met
	}
	h := newHeap(pcfg)
	m := hashmap.NewWith(h, "m", n, kind, hashmap.Options{
		Shards: 1, Capacity: 512, VecCap: vcap, Epoch: true, EpochInterval: d,
	})
	m.SetProbe(pcfg.probe())
	samples := make([][]epochSample, n)
	for i := range samples {
		samples[i] = make([]epochSample, 0, 4096)
	}
	var op OpFunc
	if vcap < 2 {
		op = func(tid int, i uint64, rng *rand.Rand) {
			m.Put(tid, uint64(rng.Intn(256))+1, i+1)
			if i%64 == 0 {
				// The label AFTER the return: a lower bound on the close
				// that makes this operation durable.
				samples[tid] = append(samples[tid], epochSample{m.Epoch().Now(), time.Now()})
			}
		}
	} else {
		// Vectorized path: staged ops apply when the batch auto-flushes at
		// vcap, so sample on the submit that completes a batch — the label
		// then covers every operation of the just-applied vector.
		op = func(tid int, i uint64, rng *rand.Rand) {
			m.SubmitPut(tid, uint64(rng.Intn(256))+1, i+1)
			if (i+1)%uint64(2*vcap) == 0 {
				samples[tid] = append(samples[tid], epochSample{m.Epoch().Now(), time.Now()})
			}
		}
	}
	res := measure(name, h, n, cfg.Ops, op, met, nil)
	m.Close()

	closes := m.Epoch().CloseTimes() // oldest first, epochs ascending
	var lats []float64
	for _, ts := range samples {
		for _, s := range ts {
			idx := sort.Search(len(closes), func(j int) bool {
				return closes[j].Epoch >= s.label
			})
			if idx == len(closes) {
				continue // only possible if the ring evicted it
			}
			lat := closes[idx].At.Sub(s.at)
			if lat < 0 {
				lat = 0
			}
			lats = append(lats, float64(lat.Nanoseconds()))
		}
	}
	sort.Float64s(lats)
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	if len(lats) > 0 {
		res.Extra["resolve-p50-ns"] = latQuantile(lats, 0.50)
		res.Extra["resolve-p99-ns"] = latQuantile(lats, 0.99)
		res.Extra["resolve-max-ns"] = lats[len(lats)-1]
	}
	res.Extra["closes"] = float64(len(closes))
	return res
}

// latQuantile reads quantile q from sorted values.
func latQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
