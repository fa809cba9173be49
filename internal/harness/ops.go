package harness

import (
	"math/rand"

	"pcomb/internal/heap"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
)

// StackOp is the paper's pairs workload on a stack: alternating Push/Pop.
func StackOp(s *stack.Stack) OpFunc {
	return func(tid int, i uint64, _ *rand.Rand) {
		if i%2 == 0 {
			s.Push(tid, i+1)
		} else {
			s.Pop(tid)
		}
	}
}

// QueueOp is the pairs workload on a queue: alternating Enqueue/Dequeue.
func QueueOp(q *queue.Queue) OpFunc {
	return func(tid int, i uint64, _ *rand.Rand) {
		if i%2 == 0 {
			q.Enqueue(tid, i+1)
		} else {
			q.Dequeue(tid)
		}
	}
}

// HeapOp is Figure 3b's workload: alternating HInsert/HDeleteMin with
// random keys.
func HeapOp(hp *heap.Heap) OpFunc {
	return func(tid int, i uint64, rng *rand.Rand) {
		if i%2 == 0 {
			hp.Insert(tid, rng.Uint64()%(1<<20))
		} else {
			hp.DeleteMin(tid)
		}
	}
}
