// banktransfer turns a plain sequential object — a ledger of accounts with
// a transfer operation — into a recoverable concurrent one with a single
// call, demonstrating the paper's claim that PBcomb/PWFcomb "can be used to
// derive recoverable implementations of any data structure from its
// sequential implementation". The audit after a mid-flight crash shows
// atomicity: money is conserved and every completed transfer is durable.
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
	accounts       = 16
	initialBalance = 1_000
	threads        = 6
	transfers      = 500
)

// Ledger operation codes (0 is reserved by the Recover bookkeeping).
const (
	opTransfer uint64 = 1
	opBalance  uint64 = 2
)

// ledger is the sequential object: StateWords/Init/Apply is all it takes.
type ledger struct{}

func (ledger) StateWords() int { return accounts }

func (ledger) Init(s pcomb.State) {
	for i := 0; i < accounts; i++ {
		s.Store(i, initialBalance)
	}
}

func (ledger) Apply(env *pcomb.Env, r *pcomb.Request) {
	switch r.Op {
	case opTransfer:
		from, to := int(r.A0%accounts), int(r.A1%accounts)
		bal := env.State.Load(from)
		if from == to || bal == 0 {
			r.Ret = 0 // declined
			return
		}
		env.State.Store(from, bal-1)
		env.State.Store(to, env.State.Load(to)+1)
		r.Ret = 1 // committed
	case opBalance:
		r.Ret = env.State.Load(int(r.A0 % accounts))
	}
}

func total(l *pcomb.Recoverable) uint64 {
	sum := uint64(0)
	for i := 0; i < accounts; i++ {
		sum += l.State().Load(i)
	}
	return sum
}

func main() {
	sys := pcomb.New(pcomb.Options{CrashTesting: true})
	bank := sys.NewObject("bank", threads, pcomb.WaitFree, ledger{})

	run := func() {
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
				rng := rand.New(rand.NewSource(int64(tid) * 17))
				for i := 0; i < transfers; i++ {
					bank.Invoke(tid, opTransfer, rng.Uint64(), rng.Uint64())
				}
			}(tid)
		}
		wg.Wait()
	}

	fmt.Println("== phase 1: concurrent transfers")
	run()
	fmt.Printf("   total money: %d (expected %d)\n", total(bank), accounts*initialBalance)

	fmt.Println("== power failure during phase 2")
	go sys.Heap().TriggerCrash()
	run()
	sys.Heap().FinishCrash(pcomb.RandomCut, 99)

	fmt.Println("== restart: audit the recovered ledger")
	bank = sys.NewObject("bank", threads, pcomb.WaitFree, ledger{})
	for tid := 0; tid < threads; tid++ {
		for _, r := range bank.Recover(tid) {
			verdict := "declined"
			if r.Result == 1 {
				verdict = "committed"
			}
			fmt.Printf("   thread %d: interrupted transfer (op %d) resolved: %s\n", tid, r.Op, verdict)
		}
	}
	got := total(bank)
	fmt.Printf("   total money after crash+recovery: %d\n", got)
	if got != accounts*initialBalance {
		fmt.Println("FATAL: money created or destroyed")
		os.Exit(1)
	}
	fmt.Println("ok: conservation held across the crash — transfers are atomic and durable")

	// The single-object ledger keeps every account inside one combining
	// instance. The sharded fabric spreads the accounts over independent
	// shards and makes each transfer a cross-shard transaction: one durable
	// record carrying both shard groups behind a single commit point. The
	// same audit applies — the deltas of a transfer cancel, so the balances
	// sum to zero mod 2^64 — and only an all-or-nothing recovery can keep it
	// true across a crash.
	fmt.Println("== phase 3: cross-shard transfers on the sharded fabric")
	fab := sys.NewShardedMap("fbank", threads, pcomb.WaitFree, pcomb.ShardedMapOptions{Fabric: 4})
	runFabric := func() {
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
				rng := rand.New(rand.NewSource(int64(tid)*31 + 7))
				for i := 0; i < transfers; i++ {
					from := uint64(rng.Intn(accounts)) + 1
					to := uint64(rng.Intn(accounts)) + 1
					for to == from {
						to = uint64(rng.Intn(accounts)) + 1
					}
					// Multiples of 4 keep balances off the map's sentinels.
					fab.TransferAdd(tid, from, to, uint64(4*(1+rng.Intn(8))))
				}
			}(tid)
		}
		wg.Wait()
	}

	fmt.Println("== power failure during phase 3")
	go sys.Heap().TriggerCrash()
	runFabric()
	sys.Heap().FinishCrash(pcomb.RandomCut, 41)

	fmt.Println("== restart: recover the fabric and audit conservation")
	fab = sys.NewShardedMap("fbank", threads, pcomb.WaitFree, pcomb.ShardedMapOptions{Fabric: 4})
	defer fab.Close()
	for tid := 0; tid < threads; tid++ {
		// A transfer that had committed comes back as its two legs, replayed;
		// one the crash hit before its commit point reports nothing.
		if legs := fab.Recover(tid); len(legs) == 2 {
			fmt.Printf("   thread %d: interrupted cross-shard transfer replayed to completion\n", tid)
		}
	}
	if sum := fab.SumValues(); sum != 0 {
		fmt.Printf("FATAL: cross-shard transfer torn: balances sum to %d\n", sum)
		os.Exit(1)
	}
	fmt.Println("ok: balances sum to zero — cross-shard transactions are failure-atomic and durable")
}
