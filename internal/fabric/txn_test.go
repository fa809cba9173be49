package fabric

import (
	"math/rand"
	"sync"
	"testing"

	"pcomb/internal/pmem"
)

// seedAccounts installs nacc accounts of `each` units and returns the total.
func seedAccounts(m *Map, nacc int, each uint64) uint64 {
	for k := 1; k <= nacc; k++ {
		m.Add(0, uint64(k), each)
	}
	return uint64(nacc) * each
}

func TestTxnBasic(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.name, func(t *testing.T) {
			m := New(newHeap(), "m", 2, v.opts)
			defer m.Close()
			sum := seedAccounts(m, 8, 100)
			fromNew, toNew := m.TransferAdd(0, 1, 5, 30)
			if fromNew != 70 || toNew != 130 {
				t.Fatalf("transfer = %d,%d want 70,130", fromNew, toNew)
			}
			if got := m.SumValues(); got != sum {
				t.Fatalf("sum = %d, want %d", got, sum)
			}
			// Multi-leg put across shards.
			prev := m.PutAll(1, []Leg{{Key: 1001, Val: 1}, {Key: 1002, Val: 2}, {Key: 1003, Val: 3}})
			for i, p := range prev {
				if p != NotFound {
					t.Fatalf("fresh PutAll prev[%d] = %d", i, p)
				}
			}
			for i := uint64(1); i <= 3; i++ {
				if got, ok := m.Get(0, 1000+i); !ok || got != i {
					t.Fatalf("key %d = %d,%v", 1000+i, got, ok)
				}
			}
			// Same-shard legs collapse into one group and still work.
			r := m.Txn(0, []Leg{{Op: OpAdd, Key: 42, Val: 1}, {Op: OpAdd, Key: 42, Val: 1}})
			if r[0] != 1 || r[1] != 2 {
				t.Fatalf("same-key txn = %v", r)
			}
		})
	}
}

// TestTxnCrashEnumeration is the strongest atomicity test: with a
// single-threaded flat fabric (deterministic persistence-event stream), it
// crashes a cross-shard transfer at EVERY persistence event in turn, runs
// recovery, and checks (a) conservation of the value sum and (b) that a
// second recovery is a no-op — for both protocols.
func TestTxnCrashEnumeration(t *testing.T) {
	for _, kindCase := range []struct {
		name string
		kind Kind
	}{{"PB", Blocking}, {"PWF", WaitFree}} {
		t.Run(kindCase.name, func(t *testing.T) {
			opts := Options{Shards: 4, Kind: kindCase.kind, Flat: true}
			crashes := 0
			for crashAt := int64(1); ; crashAt++ {
				h := newHeap()
				m := New(h, "m", 1, opts)
				sum := seedAccounts(m, 8, 100)
				h.SetCrashAtEvent(crashAt)
				crashed := false
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(pmem.CrashError); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					m.TransferAdd(0, 1, 5, 7)
					m.Txn(0, []Leg{
						{Op: OpAdd, Key: 2, Val: ^uint64(2)}, // -3
						{Op: OpAdd, Key: 6, Val: 1},
						{Op: OpAdd, Key: 7, Val: 2},
					})
				}()
				if !crashed {
					// Past the last event of both transactions: enumeration done.
					if got := m.SumValues(); got != sum {
						t.Fatalf("no-crash sum = %d, want %d", got, sum)
					}
					if crashes == 0 {
						t.Fatal("enumeration never crashed — events not firing?")
					}
					t.Logf("enumerated %d crash points", crashes)
					return
				}
				crashes++
				h.FinishCrash(pmem.RandomCut, crashAt)
				m2 := New(h, "m", 1, opts)
				for _, r := range m2.Recover(0) {
					if r.Op != OpAdd {
						t.Fatalf("crashAt %d: recovered op %x", crashAt, r.Op)
					}
				}
				if got := m2.SumValues(); got != sum {
					t.Fatalf("crashAt %d: sum = %d, want %d (atomicity violated)", crashAt, got, sum)
				}
				// Recovery must be idempotent and terminal.
				if m2.Recover(0) != nil {
					t.Fatalf("crashAt %d: second Recover still pending", crashAt)
				}
				if crashAt > 100000 {
					t.Fatal("enumeration did not terminate")
				}
			}
		})
	}
}

// TestTxnCrashDuringRecovery re-crashes at every persistence event INSIDE
// recovery itself: a committed transaction interrupted once, then
// interrupted again while being replayed, must still complete exactly once.
func TestTxnCrashDuringRecovery(t *testing.T) {
	opts := Options{Shards: 4, Flat: true}
	// First find a crash point that leaves a committed transaction pending.
	for crashAt := int64(1); crashAt < 100000; crashAt++ {
		h := newHeap()
		m := New(h, "m", 1, opts)
		sum := seedAccounts(m, 8, 100)
		h.SetCrashAtEvent(crashAt)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			m.TransferAdd(0, 1, 5, 7)
		}()
		if !crashed {
			return // enumeration exhausted
		}
		h.FinishCrash(pmem.RandomCut, crashAt)

		// Nested enumeration: crash the recovery at each of ITS events.
		for rAt := int64(1); ; rAt++ {
			m2 := New(h, "m", 1, opts)
			h.SetCrashAtEvent(rAt)
			rCrashed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(pmem.CrashError); !ok {
							panic(r)
						}
						rCrashed = true
					}
				}()
				m2.Recover(0)
			}()
			if !rCrashed {
				h.SetCrashAtEvent(0)
				if got := m2.SumValues(); got != sum {
					t.Fatalf("crashAt %d/rAt %d: sum = %d, want %d", crashAt, rAt, got, sum)
				}
				break
			}
			h.FinishCrash(pmem.RandomCut, rAt)
			m3 := New(h, "m", 1, opts)
			m3.Recover(0)
			if got := m3.SumValues(); got != sum {
				t.Fatalf("crashAt %d, recovery re-crash at %d: sum = %d, want %d",
					crashAt, rAt, got, sum)
			}
			// Continue the outer enumeration from the re-recovered heap: the
			// next inner iteration re-opens and re-recovers a clean instance.
		}
	}
}

// TestTxnConcurrentCrashConservation runs concurrent transfers on a
// hierarchical fabric through repeated mid-flight crashes; the bank total
// must be conserved across every generation.
func TestTxnConcurrentCrashConservation(t *testing.T) {
	const threads, nacc = 4, 16
	for _, kindCase := range []struct {
		name string
		kind Kind
	}{{"PB", Blocking}, {"PWF", WaitFree}} {
		t.Run(kindCase.name, func(t *testing.T) {
			opts := Options{Shards: 4, Kind: kindCase.kind}
			h := newHeap()
			m := New(h, "bank", threads, opts)
			sum := seedAccounts(m, nacc, 1000)
			for gen := 0; gen < 6; gen++ {
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
						rng := rand.New(rand.NewSource(int64(gen*threads + tid)))
						for i := 0; i < 150; i++ {
							from := uint64(rng.Intn(nacc)) + 1
							to := uint64(rng.Intn(nacc)) + 1
							if from == to {
								continue
							}
							m.TransferAdd(tid, from, to, uint64(rng.Intn(20)))
						}
					}(tid)
				}
				if gen%2 == 1 {
					go h.TriggerCrash()
				}
				wg.Wait()
				m.Close()
				h.FinishCrash(pmem.RandomCut, int64(gen))
				m = New(h, "bank", threads, opts)
				for tid := 0; tid < threads; tid++ {
					m.Recover(tid)
				}
				if got := m.SumValues(); got != sum {
					t.Fatalf("gen %d: sum = %d, want %d (conservation violated)", gen, got, sum)
				}
			}
			m.Close()
		})
	}
}

// TestTxnRejectedBeforeScratch: an over-long leg list is refused before the
// thread's transaction scratch is touched, so the next transaction is sound.
func TestTxnRejectedBeforeScratch(t *testing.T) {
	m := New(newHeap(), "m", 1, Options{Shards: 4, MaxLegs: 2})
	sum := seedAccounts(m, 8, 100)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("3 legs accepted with MaxLegs 2")
			}
		}()
		m.Txn(0, []Leg{{Op: OpAdd, Key: 1, Val: 1}, {Op: OpAdd, Key: 2, Val: 1}, {Op: OpAdd, Key: 3, Val: 1}})
	}()
	if fromNew, toNew := m.TransferAdd(0, 1, 5, 30); fromNew != 70 || toNew != 130 {
		t.Fatalf("transfer after a rejected txn = %d,%d want 70,130", fromNew, toNew)
	}
	if got := m.SumValues(); got != sum {
		t.Fatalf("sum = %d, want %d", got, sum)
	}
}
