// priorityscheduler builds a crash-tolerant deadline scheduler on PBheap —
// the paper's recoverable concurrent heap. Tasks carry deadlines (the heap
// key); workers always execute the earliest deadline first; a power failure
// loses nothing that was scheduled.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"

	"pcomb"
)

const (
	threads = 4
	bound   = 1024 // PBheap is a bounded heap; 64-1024 is the paper's range
)

// A task id is packed into the low bits of the key so keys stay unique and
// the deadline still dominates the ordering.
func task(deadline, id uint64) uint64 { return deadline<<20 | id }

func deadline(key uint64) uint64 { return key >> 20 }

func main() {
	sys := pcomb.New(pcomb.Options{CrashTesting: true})
	sched := sys.NewHeap("sched", threads, pcomb.Blocking, bound)

	// Schedule 512 tasks with random deadlines from all threads.
	var wg sync.WaitGroup
	var idGen sync.Mutex
	next := uint64(0)
	scheduled := make([][]uint64, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 1))
			for i := 0; i < 128; i++ {
				idGen.Lock()
				id := next
				next++
				idGen.Unlock()
				k := task(uint64(rng.Intn(1<<20)), id)
				if !sched.Insert(tid, k) {
					fmt.Println("FATAL: scheduler full")
					os.Exit(1)
				}
				scheduled[tid] = append(scheduled[tid], k)
			}
		}(tid)
	}
	wg.Wait()
	fmt.Printf("scheduled %d tasks; earliest deadline: ", sched.Len())
	if k, ok := sched.GetMin(0); ok {
		fmt.Println(deadline(k))
	}

	// Execute the first 100 tasks; they must come out in deadline order.
	var done []uint64
	for i := 0; i < 100; i++ {
		k, ok := sched.DeleteMin(0)
		if !ok {
			break
		}
		done = append(done, k)
	}
	if !sort.SliceIsSorted(done, func(i, j int) bool { return done[i] < done[j] }) {
		fmt.Println("FATAL: tasks executed out of deadline order")
		os.Exit(1)
	}
	fmt.Printf("executed %d tasks in deadline order\n", len(done))

	// Power failure, restart, recovery.
	sys.Crash(pcomb.DropUnfenced, 3)
	sched = sys.NewHeap("sched", threads, pcomb.Blocking, bound)
	for tid := 0; tid < threads; tid++ {
		for _, r := range sched.Recover(tid) {
			fmt.Printf("thread %d: recovered op %d -> %d\n", tid, r.Op, r.Result)
		}
	}
	fmt.Printf("after recovery: %d tasks still scheduled\n", sched.Len())

	// The survivors are exactly the scheduled-minus-executed multiset, and
	// they still drain in deadline order.
	want := map[uint64]bool{}
	for _, ks := range scheduled {
		for _, k := range ks {
			want[k] = true
		}
	}
	for _, k := range done {
		delete(want, k)
	}
	prev := uint64(0)
	drained := 0
	for {
		k, ok := sched.DeleteMin(0)
		if !ok {
			break
		}
		if k < prev {
			fmt.Println("FATAL: recovered heap violates ordering")
			os.Exit(1)
		}
		if !want[k] {
			fmt.Printf("FATAL: phantom or duplicated task %x\n", k)
			os.Exit(1)
		}
		delete(want, k)
		prev = k
		drained++
	}
	if len(want) != 0 {
		fmt.Printf("FATAL: %d scheduled tasks lost\n", len(want))
		os.Exit(1)
	}
	fmt.Printf("drained %d surviving tasks in order; nothing lost, nothing duplicated\n", drained)
}
