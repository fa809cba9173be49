package volatilecomb

import (
	"math"
	"sync"
	"testing"
)

func executors(n int, state []uint64) []Executor {
	return []Executor{
		NewCCSynch(n, state, FetchAddStep, 0),
		NewHSynch(n, append([]uint64(nil), state...), FetchAddStep, 2),
		NewPSim(n, append([]uint64(nil), state...), FetchAddStep),
		NewMCS(n, append([]uint64(nil), state...), FetchAddStep),
		NewCBOMCS(n, append([]uint64(nil), state...), FetchAddStep, 2, 16),
		NewLockFree(state[0], FetchAddStep),
	}
}

// TestFetchAddUniqueness drives every executor with concurrent fetch&add(1):
// atomicity means all n*per return values are distinct.
func TestFetchAddUniqueness(t *testing.T) {
	const n, per = 8, 300
	for _, ex := range executors(n, []uint64{0}) {
		t.Run(ex.Name(), func(t *testing.T) {
			rets := make([][]uint64, n)
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						rets[tid] = append(rets[tid], ex.Apply(tid, 1))
					}
				}(tid)
			}
			wg.Wait()
			seen := make(map[uint64]bool, n*per)
			for _, rs := range rets {
				for _, r := range rs {
					if seen[r] {
						t.Fatalf("duplicate fetch&add return %d", r)
					}
					seen[r] = true
				}
			}
			if len(seen) != n*per {
				t.Fatalf("%d distinct returns, want %d (lost updates)", len(seen), n*per)
			}
		})
	}
}

func TestAtomicFloatStep(t *testing.T) {
	st := []uint64{math.Float64bits(2)}
	ret := AtomicFloatStep(st, math.Float64bits(3))
	if math.Float64frombits(ret) != 2 {
		t.Fatalf("ret = %v", math.Float64frombits(ret))
	}
	if math.Float64frombits(st[0]) != 6 {
		t.Fatalf("state = %v", math.Float64frombits(st[0]))
	}
}

func TestAtomicFloatAllExecutors(t *testing.T) {
	const n, per = 4, 100
	k := math.Float64bits(1.0000001)
	want := math.Pow(1.0000001, n*per)
	mk := []func() Executor{
		func() Executor { return NewCCSynch(n, []uint64{math.Float64bits(1)}, AtomicFloatStep, 0) },
		func() Executor { return NewHSynch(n, []uint64{math.Float64bits(1)}, AtomicFloatStep, 2) },
		func() Executor { return NewPSim(n, []uint64{math.Float64bits(1)}, AtomicFloatStep) },
		func() Executor { return NewMCS(n, []uint64{math.Float64bits(1)}, AtomicFloatStep) },
		func() Executor { return NewCBOMCS(n, []uint64{math.Float64bits(1)}, AtomicFloatStep, 2, 16) },
		func() Executor { return NewLockFree(math.Float64bits(1), AtomicFloatStep) },
	}
	for _, make := range mk {
		ex := make()
		t.Run(ex.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			var last uint64
			var mu sync.Mutex
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						r := ex.Apply(tid, k)
						mu.Lock()
						if r > last {
							last = r
						}
						mu.Unlock()
					}
				}(tid)
			}
			wg.Wait()
			// After n*per multiplications the last value read must be
			// 1.0000001^(n*per-1); the final state one step further. We can
			// only observe returns, so check the max return.
			got := math.Float64frombits(last)
			wantLast := want / 1.0000001
			if math.Abs(got-wantLast) > 1e-9 {
				t.Fatalf("max return %v, want %v (lost updates)", got, wantLast)
			}
		})
	}
}

func TestPSimManyThreads(t *testing.T) {
	// More threads than one announce word holds.
	const n, per = 70, 20
	ex := NewPSim(n, []uint64{0}, FetchAddStep)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ex.Apply(tid, 1)
			}
		}(tid)
	}
	wg.Wait()
	if got := ex.Apply(0, 0); got != n*per {
		t.Fatalf("final value %d, want %d", got, n*per)
	}
}

func TestMultiWordStateUnderLocks(t *testing.T) {
	// A 4-word transfer step must stay conserved under every lock-based
	// executor (the lock-free baseline is single-word only by design).
	step := func(st []uint64, arg uint64) uint64 {
		from, to := int(arg%4), int((arg+1)%4)
		if st[from] > 0 {
			st[from]--
			st[to]++
		}
		return st[from]
	}
	const n, per = 6, 200
	mk := []Executor{
		NewCCSynch(n, []uint64{100, 100, 100, 100}, step, 0),
		NewHSynch(n, []uint64{100, 100, 100, 100}, step, 2),
		NewPSim(n, []uint64{100, 100, 100, 100}, step),
		NewMCS(n, []uint64{100, 100, 100, 100}, step),
		NewCBOMCS(n, []uint64{100, 100, 100, 100}, step, 2, 16),
	}
	for _, ex := range mk {
		t.Run(ex.Name(), func(t *testing.T) {
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						ex.Apply(tid, uint64(tid+i))
					}
				}(tid)
			}
			wg.Wait()
			// Drain the state via a read-only probe step: sum must be 400.
			// Reuse the executor to read each word atomically w.r.t. ops.
			sum := uint64(0)
			probe := func(st []uint64, arg uint64) uint64 { return st[arg] }
			switch e := ex.(type) {
			case *CCSynch:
				e.step = probe
				for i := uint64(0); i < 4; i++ {
					sum += e.Apply(0, i)
				}
			case *HSynch:
				for _, cl := range e.clusters {
					cl.step = probe
				}
				for i := uint64(0); i < 4; i++ {
					sum += e.Apply(0, i)
				}
			case *PSim:
				e.step = probe
				for i := uint64(0); i < 4; i++ {
					sum += e.Apply(0, i)
				}
			case *MCS:
				e.step = probe
				for i := uint64(0); i < 4; i++ {
					sum += e.Apply(0, i)
				}
			case *CBOMCS:
				e.step = probe
				for i := uint64(0); i < 4; i++ {
					sum += e.Apply(0, i)
				}
			}
			if sum != 400 {
				t.Fatalf("sum = %d, want 400 (conservation violated)", sum)
			}
		})
	}
}
