// sessionstore uses the sharded recoverable hash map — the paper's §8 open
// problem made concrete — as a crash-tolerant session store: web workers
// create, refresh, and expire sessions; a power failure mid-traffic loses
// nothing, and a post-crash audit replays every worker's log against the
// recovered store.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"

	"pcomb"
	"pcomb/internal/pmem"
)

const (
	workers  = 6
	requests = 400
	shards   = 8
)

type event struct {
	op  string // "put" or "del"
	sid uint64
	val uint64
}

func main() {
	sys := pcomb.New(pcomb.Options{CrashTesting: true})
	store := sys.NewMap("sessions", workers, pcomb.Blocking,
		pcomb.MapOptions{Shards: shards, Capacity: 1 << 14})

	logs := make([][]event, workers)
	pending := make([]event, workers)
	pendingSet := make([]bool, workers)

	serve := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(pmem.CrashError); !ok {
							panic(r)
						}
					}
				}()
				rng := rand.New(rand.NewSource(int64(w) + 100))
				for i := 0; i < requests; i++ {
					// Sessions are worker-scoped so the audit needs no
					// cross-worker ordering.
					sid := uint64(w)<<32 | uint64(rng.Intn(50)) + 1
					if rng.Intn(4) != 0 { // create/refresh
						val := uint64(i) + 1
						pending[w] = event{"put", sid, val}
						pendingSet[w] = true
						store.Put(w, sid, val)
						logs[w] = append(logs[w], event{"put", sid, val})
					} else { // expire
						pending[w] = event{"del", sid, 0}
						pendingSet[w] = true
						store.Delete(w, sid)
						logs[w] = append(logs[w], event{"del", sid, 0})
					}
					pendingSet[w] = false
				}
			}(w)
		}
		wg.Wait()
	}

	fmt.Println("== serving traffic")
	serve()
	fmt.Printf("   %d live sessions\n", store.Len())

	fmt.Println("== power failure under load")
	go sys.Heap().TriggerCrash()
	serve()
	sys.Heap().FinishCrash(pcomb.RandomCut, 11)

	fmt.Println("== restart and recovery")
	store = sys.NewMap("sessions", workers, pcomb.Blocking,
		pcomb.MapOptions{Shards: shards, Capacity: 1 << 14})
	for w := 0; w < workers; w++ {
		for _, r := range store.Recover(w) {
			fmt.Printf("   worker %d: interrupted op %d on session %x resolved\n", w, r.Op, r.A0)
			if pendingSet[w] {
				logs[w] = append(logs[w], pending[w]) // it took effect exactly once
			}
		}
	}

	// Audit: replay each worker's log; the recovered store must match.
	oracle := map[uint64]uint64{}
	for w := 0; w < workers; w++ {
		for _, e := range logs[w] {
			if e.op == "put" {
				oracle[e.sid] = e.val
			} else {
				delete(oracle, e.sid)
			}
		}
	}
	for sid, want := range oracle {
		got, ok := store.Get(0, sid)
		if !ok || got != want {
			fmt.Printf("FATAL: session %x = %d,%v want %d\n", sid, got, ok, want)
			os.Exit(1)
		}
	}
	if store.Len() != len(oracle) {
		fmt.Printf("FATAL: store has %d sessions, oracle %d\n", store.Len(), len(oracle))
		os.Exit(1)
	}
	fmt.Printf("   %d sessions recovered, all match the replayed logs\n", store.Len())
	fmt.Println("ok: the session store survived the crash bit-for-bit")
}
