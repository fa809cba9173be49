// jobqueue is the scenario the paper's introduction motivates: a recoverable
// work queue at the heart of a runtime system. Producers enqueue jobs and
// consumers dequeue them through the async pipelined API — operations are
// staged per thread and committed a whole vector at a time, so the announce
// handshake and the record persist amortize over the batch. The machine dies
// mid-stream; after restart, Recover resolves every operation of each
// interrupted batch exactly once, staged-but-uncommitted jobs are dropped
// wholesale (the async API's commit-point contract), and the accounting
// proves that no committed job was lost or executed twice.
package main

import (
	"fmt"
	"os"
	"sync"

	"pcomb"
	"pcomb/internal/pmem"
)

const (
	threads = 6
	jobs    = 400 // per producer, per phase
	batch   = 8   // vector capacity: ops committed per slot toggle
)

func main() {
	sys := pcomb.New(pcomb.Options{CrashTesting: true})
	open := func() *pcomb.Queue {
		return sys.NewQueue("jobs", threads, pcomb.Blocking,
			pcomb.QueueOptions{VecCap: batch})
	}
	q := open()

	// Audit ground truth. produced holds jobs whose batch committed (its
	// Flush returned, or recovery reported it); staged holds each producer's
	// submitted-but-unconfirmed jobs — exactly the window the async API can
	// drop wholesale in a crash.
	produced := map[uint64]bool{}
	executed := map[uint64]bool{}
	staged := make([][]uint64, threads)
	var mu sync.Mutex

	phase := func(round int) {
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
				var futs []pcomb.Future
				for i := 0; i < jobs; i++ {
					if tid%2 == 0 { // producer
						job := uint64(round)<<40 | uint64(tid)<<32 | uint64(i) + 1
						mu.Lock()
						staged[tid] = append(staged[tid], job)
						mu.Unlock()
						futs = append(futs, q.SubmitEnqueue(tid, job))
					} else { // consumer
						futs = append(futs, q.SubmitDequeue(tid))
					}
					if len(futs) < batch && i != jobs-1 {
						continue
					}
					// The batch is full (or the phase ends): commit it and
					// resolve its futures before they expire. Once Flush
					// returns, every op of the batch is durable.
					q.Flush(tid)
					mu.Lock()
					for _, f := range futs {
						if tid%2 == 0 {
							continue
						}
						if job := f.Wait(); job != pcomb.Empty {
							if executed[job] {
								fmt.Printf("FATAL: job %x executed twice\n", job)
								os.Exit(1)
							}
							executed[job] = true
						}
					}
					if tid%2 == 0 {
						for _, job := range staged[tid] {
							produced[job] = true
						}
						staged[tid] = staged[tid][:0]
					}
					mu.Unlock()
					futs = futs[:0]
				}
			}(tid)
		}
		wg.Wait()
	}

	fmt.Println("== phase 1: producing and consuming jobs in batches of", batch)
	phase(1)
	fmt.Printf("   produced=%d executed=%d backlog=%d\n",
		len(produced), len(executed), q.Len())

	fmt.Println("== power failure mid-operation")
	// Trigger the crash while workers run: phase 2 workers will die at
	// their next persistence instruction — possibly inside a half-applied
	// vector.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.Heap().TriggerCrash()
	}()
	phase(2)
	<-done
	sys.Heap().FinishCrash(pcomb.RandomCut, 42)

	fmt.Println("== restart: re-open the queue, resolve interrupted batches")
	q = open()
	for tid := 0; tid < threads; tid++ {
		ops := q.Recover(tid)
		if len(ops) == 0 {
			continue
		}
		for _, op := range ops {
			switch op.Op {
			case pcomb.OpEnqueue:
				// The batch's record was durable, so recovery re-ran (or
				// found) the whole vector: each of its jobs is in the queue
				// exactly once — confirm it as produced.
				produced[op.A0] = true
			case pcomb.OpDequeue:
				if op.Result != pcomb.Empty {
					if executed[op.Result] {
						fmt.Printf("FATAL: recovered dequeue re-delivered job %x\n", op.Result)
						os.Exit(1)
					}
					executed[op.Result] = true
				}
			}
		}
		fmt.Printf("   thread %d: interrupted batch of %d resolved exactly once\n", tid, len(ops))
	}

	fmt.Println("== audit: committed jobs are executed or backlogged; uncommitted ones vanished")
	backlog := map[uint64]bool{}
	for _, j := range q.Snapshot() {
		if backlog[j] || executed[j] {
			fmt.Printf("FATAL: job %x duplicated\n", j)
			os.Exit(1)
		}
		backlog[j] = true
	}
	lost := 0
	for j := range produced {
		if !executed[j] && !backlog[j] {
			lost++
		}
	}
	if lost > 0 {
		// Every committed batch either completed or was resolved by
		// Recover, so a lost job would be a detectability violation.
		fmt.Printf("FATAL: %d committed jobs lost\n", lost)
		os.Exit(1)
	}
	// Jobs still staged at the crash never committed: the contract says
	// they are dropped wholesale, so none of them may have reached the
	// queue (unless recovery just confirmed them as produced).
	dropped := 0
	for tid := 0; tid < threads; tid += 2 {
		for _, j := range staged[tid] {
			if produced[j] {
				continue
			}
			if executed[j] || backlog[j] {
				fmt.Printf("FATAL: uncommitted job %x leaked into the queue\n", j)
				os.Exit(1)
			}
			dropped++
		}
	}
	fmt.Printf("   executed=%d backlog=%d produced=%d lost=0 dropped-uncommitted=%d\n",
		len(executed), len(backlog), len(produced), dropped)
	fmt.Println("ok: exactly-once for every committed batch — detectable recoverability held")
}
