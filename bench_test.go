// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 6), plus ablation benches for the design
// decisions DESIGN.md calls out. Each (figure, algorithm, thread-count)
// point is a sub-benchmark reporting Mops/s and pwbs/op; run
//
//	go test -bench=. -benchmem
//
// for the full set, or e.g. -bench=Fig2a for one figure. The cmd/pcomb-bench
// CLI prints the same data as the paper-style series tables.
package pcomb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pcomb/internal/harness"
	"pcomb/internal/hashmap"
	"pcomb/internal/heap"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
)

// benchThreads is the thread-count subset benches sweep (the CLI covers the
// paper's full 1..96 axis).
var benchThreads = []int{1, 8, 32}

func benchCfg(n uint64) harness.Config {
	return harness.Config{Ops: n, Persist: pmem.Config{Mode: pmem.ModeCount}}
}

// runPoint drives one (algorithm, threads) point for b.N operations.
func runPoint(b *testing.B, a harness.Algo, cfg harness.Config, n int) {
	b.Helper()
	ops := uint64(b.N)
	if ops < 64 {
		ops = 64
	}
	cfg.Ops = ops
	h, op := a.Build(cfg, n)
	b.ResetTimer()
	res := harness.Measure(a.Name, h, n, ops, op)
	b.StopTimer()
	b.ReportMetric(res.Mops, "Mops/s")
	b.ReportMetric(res.PwbsPerOp, "pwbs/op")
}

func benchFigure(b *testing.B, fig string, cfg harness.Config) {
	for _, a := range harness.FigureAlgos(fig) {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", a.Name, n), func(b *testing.B) {
				runPoint(b, a, cfg, n)
			})
		}
	}
}

// BenchmarkFig1aAtomicFloat reproduces Figure 1a: persistent AtomicFloat
// throughput across PBcomb, PWFcomb and the PTM baselines.
func BenchmarkFig1aAtomicFloat(b *testing.B) { benchFigure(b, "1a", benchCfg(0)) }

// BenchmarkFig1bPwbs reproduces Figure 1b: the same sweep read through the
// pwbs/op metric each sub-benchmark reports.
func BenchmarkFig1bPwbs(b *testing.B) { benchFigure(b, "1b", benchCfg(0)) }

// BenchmarkFig1cPsyncOff reproduces Figure 1c: PBcomb/PWFcomb with psync
// replaced by a NOP.
func BenchmarkFig1cPsyncOff(b *testing.B) {
	cfg := benchCfg(0)
	cfg.Persist.PsyncOff = true
	benchFigure(b, "1a", cfg)
}

// BenchmarkFig2aQueues reproduces Figure 2a: persistent queue throughput.
func BenchmarkFig2aQueues(b *testing.B) { benchFigure(b, "2a", benchCfg(0)) }

// BenchmarkFig2bQueuePwbs reproduces Figure 2b (pwbs/op metric).
func BenchmarkFig2bQueuePwbs(b *testing.B) { benchFigure(b, "2b", benchCfg(0)) }

// BenchmarkFig2cPwbOff reproduces Figure 2c: queue throughput with pwb
// replaced by a NOP — pure synchronization cost.
func BenchmarkFig2cPwbOff(b *testing.B) {
	cfg := benchCfg(0)
	cfg.Persist.PwbOff = true
	benchFigure(b, "2b", cfg)
}

// BenchmarkFig3aStacks reproduces Figure 3a: persistent stack throughput
// including the elimination/recycling ablation variants.
func BenchmarkFig3aStacks(b *testing.B) { benchFigure(b, "3a", benchCfg(0)) }

// BenchmarkFig3bHeap reproduces Figure 3b: PBheap throughput across heap
// bounds 64-1024 (half-full start, alternating HInsert/HDeleteMin).
func BenchmarkFig3bHeap(b *testing.B) {
	for _, bound := range []int{64, 128, 256, 512, 1024} {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("PBheap-%d/threads=%d", bound, n), func(b *testing.B) {
				h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount})
				hp := heap.New(h, "h", n, heap.Blocking, bound, 0)
				for i := uint64(0); i < uint64(bound/2); i++ {
					hp.Insert(0, i*37%(1<<20))
				}
				ops := uint64(b.N)
				if ops < 64 {
					ops = 64
				}
				b.ResetTimer()
				res := harness.Measure("PBheap", h, n, ops, harness.HeapOp(hp))
				b.StopTimer()
				b.ReportMetric(res.Mops, "Mops/s")
			})
		}
	}
}

// BenchmarkFig4Volatile reproduces Figure 4: the volatile AtomicFloat
// comparison against H-Synch, CC-Synch, PSim, MCS, lock-free and C-BO-MCS.
func BenchmarkFig4Volatile(b *testing.B) { benchFigure(b, "4", benchCfg(0)) }

// BenchmarkTable1Counters reproduces Table 1: per-operation cache misses
// and shared-state loads/stores at high thread count.
func BenchmarkTable1Counters(b *testing.B) {
	ops := uint64(b.N)
	if ops < 1000 {
		ops = 1000
	}
	rows := harness.Table1(64, ops)
	for _, r := range rows {
		b.ReportMetric(r.CacheMisses, r.Algorithm+"-misses/op")
	}
}

// --- Ablations: the design decisions of Definitions 1 and 2 -------------

// BenchmarkAblationElimination quantifies the stack elimination
// optimization (Figure 3a's -no-elim series, isolated).
func BenchmarkAblationElimination(b *testing.B) {
	for _, elim := range []bool{true, false} {
		b.Run(fmt.Sprintf("elimination=%v", elim), func(b *testing.B) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount})
			ops := uint64(b.N)
			if ops < 64 {
				ops = 64
			}
			s := stack.New(h, "s", 8, stack.Blocking, stack.Options{
				Elimination: elim, Recycling: true,
				Capacity: int(ops) + 4096, ChunkSize: 128,
			})
			b.ResetTimer()
			res := harness.Measure("stack", h, 8, ops, harness.StackOp(s))
			b.StopTimer()
			b.ReportMetric(res.Mops, "Mops/s")
			b.ReportMetric(res.PwbsPerOp, "pwbs/op")
		})
	}
}

// BenchmarkAblationRecycling quantifies node recycling for the queue
// (Figure 2a's PBqueue-no-rec series, isolated).
func BenchmarkAblationRecycling(b *testing.B) {
	for _, rec := range []bool{true, false} {
		b.Run(fmt.Sprintf("recycling=%v", rec), func(b *testing.B) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount})
			ops := uint64(b.N)
			if ops < 64 {
				ops = 64
			}
			q := queue.NewOn(h, "q", 8, queue.Blocking, queue.Options{
				Recycling: rec, Capacity: int(ops) + 4096, ChunkSize: 128,
			}, nil, 0)
			b.ResetTimer()
			res := harness.Measure("queue", h, 8, ops, harness.QueueOp(q))
			b.StopTimer()
			b.ReportMetric(res.Mops, "Mops/s")
			b.ReportMetric(res.PwbsPerOp, "pwbs/op")
		})
	}
}

// BenchmarkAblationPwbCost sweeps the simulated pwb latency, showing how
// the combining protocols' advantage grows with persistence cost
// (persistence principle 1 made visible).
func BenchmarkAblationPwbCost(b *testing.B) {
	for _, ns := range []int{50, 200, 800} {
		for _, a := range harness.FigureAlgos("1a")[:3] { // PBcomb, PWFcomb, RedoOpt
			b.Run(fmt.Sprintf("pwb=%dns/%s", ns, a.Name), func(b *testing.B) {
				cfg := benchCfg(0)
				cfg.Persist.PwbNs = ns
				runPoint(b, a, cfg, 8)
			})
		}
	}
}

// BenchmarkAblationCombiningDegree reports pwbs/op for PBcomb across thread
// counts: the amortization of persistence cost over the combining degree is
// the paper's central mechanism.
func BenchmarkAblationCombiningDegree(b *testing.B) {
	a := harness.FigureAlgos("1a")[0] // PBcomb
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			runPoint(b, a, benchCfg(0), n)
		})
	}
}

// BenchmarkExtensionMapShards exercises the paper's Section 8 open problem
// (recoverable hashing from multiple combining instances): more shards mean
// more independent combiners, so both contention and per-shard persistence
// amortization improve.
func BenchmarkExtensionMapShards(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount})
			const n = 16
			m := hashmap.NewWith(h, "m", n, hashmap.Blocking, hashmap.Options{Shards: shards, Capacity: 4096})
			ops := uint64(b.N)
			if ops < 64 {
				ops = 64
			}
			b.ResetTimer()
			res := harness.Measure("map", h, n, ops, func(tid int, i uint64, rng *rand.Rand) {
				key := uint64(rng.Intn(2048)) + 1
				if i%2 == 0 {
					m.Put(tid, key, i)
				} else {
					m.Get(tid, key)
				}
			})
			b.StopTimer()
			b.ReportMetric(res.Mops, "Mops/s")
			b.ReportMetric(res.PwbsPerOp, "pwbs/op")
		})
	}
}
