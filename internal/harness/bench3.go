package harness

import (
	"math/rand"

	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/heap"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
)

// benchMapShards gives a sharded map a wide per-shard record (shards*128
// slot pairs), the regime where whole-record copying dominates the hot path
// and the dirty-delta copy pays off.
const benchMapShards = 4

func benchQueue(kind queue.Kind, sparse bool) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		q := queue.New(h, "q", n, kind, queue.Options{
			Capacity: queueCap(cfg, n), ChunkSize: queueChunk, Sparse: sparse,
		})
		q.SetProbe(cfg.probe())
		return h, QueueOp(q)
	}
}

func benchStack(kind stack.Kind, sparse bool) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		s := stack.New(h, "s", n, kind, stack.Options{
			Capacity: queueCap(cfg, n), ChunkSize: queueChunk, Sparse: sparse,
		})
		s.SetProbe(cfg.probe())
		return h, StackOp(s)
	}
}

func benchHeap(kind heap.Kind, sparse bool) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		var hp *heap.Heap
		switch {
		case sparse && kind == heap.WaitFree:
			hp = heap.NewSparseWaitFree(h, "h", n, 1024)
		case sparse:
			hp = heap.NewSparse(h, "h", n, 1024)
		default:
			hp = heap.New(h, "h", n, kind, 1024)
		}
		hp.SetProbe(cfg.probe())
		pre := uint64(512)
		for i := uint64(0); i < pre; i++ {
			hp.Insert(0, i*37%(1<<20), i+1)
		}
		return h, HeapOp(hp, pre)
	}
}

func benchMap(kind hashmap.Kind, sparse bool) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		mk := hashmap.NewDense
		if sparse {
			mk = hashmap.New
		}
		m := mk(h, "m", n, kind, benchMapShards, benchMapShards*128)
		m.SetProbe(cfg.probe())
		return h, func(tid int, i uint64, rng *rand.Rand) {
			key := uint64(rng.Intn(256)) + 1
			if i%2 == 0 {
				m.Put(tid, key, i)
			} else {
				m.Get(tid, key)
			}
		}
	}
}

// FigBench is the dense-vs-sparse persistence comparison across all four
// structures: for each of queue, stack, heap, and sharded hash map, a dense
// (whole-record copy and persist) and a sparse (dirty-delta) variant of both
// protocols. Run with Metrics on so each point carries copy-words/op and the
// observed combining degree alongside throughput and pwbs/op.
func FigBench(cfg Config) []Series {
	algos := []Algo{
		{"PBqueue-dense", benchQueue(queue.Blocking, false)},
		{"PBqueue-sparse", benchQueue(queue.Blocking, true)},
		{"PWFqueue-dense", benchQueue(queue.WaitFree, false)},
		{"PWFqueue-sparse", benchQueue(queue.WaitFree, true)},
		{"PBstack-dense", benchStack(stack.Blocking, false)},
		{"PBstack-sparse", benchStack(stack.Blocking, true)},
		{"PWFstack-dense", benchStack(stack.WaitFree, false)},
		{"PWFstack-sparse", benchStack(stack.WaitFree, true)},
		{"PBheap-dense", benchHeap(heap.Blocking, false)},
		{"PBheap-sparse", benchHeap(heap.Blocking, true)},
		{"PWFheap-dense", benchHeap(heap.WaitFree, false)},
		{"PWFheap-sparse", benchHeap(heap.WaitFree, true)},
		{"PBmap-dense", benchMap(hashmap.Blocking, false)},
		{"PBmap-sparse", benchMap(hashmap.Blocking, true)},
		{"PWFmap-dense", benchMap(hashmap.WaitFree, false)},
		{"PWFmap-sparse", benchMap(hashmap.WaitFree, true)},
	}
	return runSweep(cfg, algos)
}

// FigBackoff isolates the announce-phase adaptive backoff: the same PBcomb
// AtomicFloat workload with the tuner on (default) and off (bare yield).
// The interesting metric is comb-degree-mean — how many operations each
// combining round actually amortized its persistence cost over.
func FigBackoff(cfg Config) []Series {
	mk := func(adaptive bool) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
			h := newHeap(cfg)
			c := core.NewPBComb(h, "af", n, core.AtomicFloat{Initial: 1})
			c.SetAdaptiveBackoff(adaptive)
			c.SetProbe(cfg.probe())
			return h, func(tid int, i uint64, _ *rand.Rand) {
				c.Invoke(tid, core.OpAtomicFloatMul, kMul, 0, i+1)
			}
		}
	}
	return runSweep(cfg, []Algo{
		{"PBcomb-backoff", mk(true)},
		{"PBcomb-no-backoff", mk(false)},
	})
}
