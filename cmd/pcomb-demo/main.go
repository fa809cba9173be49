// pcomb-demo is a guided walk-through of persistent software combining: it
// runs a recoverable queue under load, kills the "machine" mid-flight with
// the most adversarial legal crash, re-opens the durable state, resolves
// every interrupted operation exactly once, and prints what survived.
package main

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"

	"pcomb"
)

func main() {
	var (
		threads = flag.Int("threads", 4, "worker goroutines")
		ops     = flag.Int("ops", 500, "operations per worker before the crash window")
	)
	flag.Parse()

	sys := pcomb.New(pcomb.Options{CrashTesting: true, NoCost: true})
	q := sys.NewQueue("demo", *threads, pcomb.Blocking)

	fmt.Printf("== phase 1: %d workers enqueue/dequeue on a recoverable PBqueue\n", *threads)
	var enq, deq atomic.Uint64
	var wg sync.WaitGroup
	for tid := 0; tid < *threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < *ops; i++ {
				v := uint64(tid)<<32 | uint64(i) + 1
				q.Enqueue(tid, v)
				enq.Add(1)
				if i%3 != 0 {
					if _, ok := q.Dequeue(tid); ok {
						deq.Add(1)
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	fmt.Printf("   completed: %d enqueues, %d successful dequeues, %d residents\n",
		enq.Load(), deq.Load(), q.Len())
	st := sys.Stats()
	fmt.Printf("   persistence instructions: %d pwb, %d pfence, %d psync\n",
		st.Pwbs, st.Pfences, st.Psyncs)

	fmt.Println("== phase 2: simulated power failure (drop every unfenced write-back)")
	before := q.Len()
	sys.Crash(pcomb.DropUnfenced, 42)

	fmt.Println("== phase 3: restart — re-open the queue from NVMM and recover")
	q = sys.NewQueue("demo", *threads, pcomb.Blocking)
	pendingOps := 0
	for tid := 0; tid < *threads; tid++ {
		for _, r := range q.Recover(tid) {
			pendingOps++
			name := "Enqueue"
			if r.Op == pcomb.OpDequeue {
				name = "Dequeue"
			}
			fmt.Printf("   thread %d: interrupted %s resolved, result %d\n", tid, name, r.Result)
		}
	}
	fmt.Printf("   %d interrupted operations resolved exactly once\n", pendingOps)
	fmt.Printf("   queue survived with %d elements (had %d at the crash; every\n", q.Len(), before)
	fmt.Println("   completed operation's effect is durable — that is detectable recoverability)")
}
