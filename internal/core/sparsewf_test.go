package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
)

func TestSparseWFMatchesDense(t *testing.T) {
	// Property: a random op sequence produces identical state and returns
	// under sparse and whole-record PWFcomb.
	f := func(ops []uint16) bool {
		h1, h2 := shadowHeap(), shadowHeap()
		a := NewPWFComb(h1, "a", 1, sparseArray{64})
		b := NewPWFComb(h2, "b", 1, dense{sparseArray{64}})
		for i, o := range ops {
			op := OpRegWrite
			if o%3 == 0 {
				op = OpRegRead
			}
			ra := a.Invoke(0, op, uint64(o%64), uint64(o), uint64(i)+1)
			rb := b.Invoke(0, op, uint64(o%64), uint64(o), uint64(i)+1)
			if ra != rb {
				return false
			}
		}
		for i := 0; i < 64; i++ {
			if a.CurrentState().Load(i) != b.CurrentState().Load(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseWFFewerPwbsOnWideState(t *testing.T) {
	const words, ops = 512, 200 // 64 state lines
	count := func(sparse bool) uint64 {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
		var obj Object = sparseArray{words}
		if !sparse {
			obj = dense{obj}
		}
		c := NewPWFComb(h, "a", 1, obj)
		// Boot both private buffers (each pays one full-record persist), so
		// the counted window measures steady state.
		c.Invoke(0, OpRegWrite, 0, 1, 1)
		c.Invoke(0, OpRegWrite, 0, 2, 2)
		h.ResetStats()
		for i := uint64(3); i < 3+ops; i++ {
			c.Invoke(0, OpRegWrite, i%words, i, i)
		}
		return h.Stats().Pwbs
	}
	whole, sparse := count(false), count(true)
	if sparse*10 > whole {
		t.Fatalf("sparse PWFcomb pwbs %d not ≪ dense %d on a 64-line state", sparse, whole)
	}
}

func TestSparseWFDurabilityAfterCrash(t *testing.T) {
	h := shadowHeap()
	c := NewPWFComb(h, "a", 1, sparseArray{64})
	want := make([]uint64, 64)
	rng := rand.New(rand.NewSource(5))
	for i := uint64(1); i <= 300; i++ {
		idx := uint64(rng.Intn(64))
		val := rng.Uint64()
		c.Invoke(0, OpRegWrite, idx, val, i)
		want[idx] = val
	}
	h.Crash(pmem.DropUnfenced, 1)
	c2 := NewPWFComb(h, "a", 1, sparseArray{64})
	for i := 0; i < 64; i++ {
		if got := c2.CurrentState().Load(i); got != want[i] {
			t.Fatalf("word %d = %d, want %d (stale line leaked through)", i, got, want[i])
		}
	}
}

func TestSparseWFCrashPointSweep(t *testing.T) {
	// Crash at every persistence event of an op history that revisits lines
	// across rounds; recovery must return the pre-crash value exactly once
	// and the durable state must be the consistent post-history state.
	for k := int64(1); ; k++ {
		h := shadowHeap()
		c := NewPWFComb(h, "a", 1, sparseArray{64})
		for i := uint64(1); i <= 6; i++ {
			c.Invoke(0, OpRegWrite, i%3, i*10, i)
		}
		ctx := c.Ctx(0)
		ctx.SetCrashAt(k)
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
			c.Invoke(0, OpRegWrite, 1, 999, 7)
		}()
		if !crashed {
			return
		}
		h.Crash(pmem.DropUnfenced, k)
		c2 := NewPWFComb(h, "a", 1, sparseArray{64})
		if got := c2.Recover(0, OpRegWrite, 1, 999, 7); got != 40 {
			t.Fatalf("crash@%d: recovered op returned %d, want 40 (old word 1)", k, got)
		}
		st := c2.CurrentState()
		if st.Load(1) != 999 || st.Load(0) != 60 || st.Load(2) != 50 {
			t.Fatalf("crash@%d: state [%d %d %d], want [60 999 50]",
				k, st.Load(0), st.Load(1), st.Load(2))
		}
	}
}

func TestSparseWFConcurrent(t *testing.T) {
	// Contending threads force lost SC attempts, torn fills, and delegated
	// flushes; the final counter value must still be the exact sum.
	const n, per = 4, 500
	h := shadowHeap()
	c := NewPWFComb(h, "a", n, markedCounter{})
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := uint64(1); i <= per; i++ {
				c.Invoke(tid, OpCounterAdd, uint64(tid)+1, 0, i)
			}
		}(tid)
	}
	wg.Wait()
	want := uint64(per * (1 + 2 + 3 + 4))
	if got := c.CurrentState().Load(0); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestSparseWFConcurrentWideState(t *testing.T) {
	// Wide state (8 lines) under contention: per-thread disjoint words, so
	// every word's final value is exactly its thread's last write — any
	// under-copied or under-persisted line shows up as a stale word.
	const n, per = 4, 300
	h := shadowHeap()
	c := NewPWFComb(h, "a", n, sparseArray{64})
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := uint64(1); i <= per; i++ {
				idx := uint64(tid*16) + i%16
				c.Invoke(tid, OpRegWrite, idx, uint64(tid)<<32|i, i)
			}
		}(tid)
	}
	wg.Wait()
	h.Crash(pmem.DropUnfenced, 9)
	c2 := NewPWFComb(h, "a", n, sparseArray{64})
	for tid := 0; tid < n; tid++ {
		for w := 0; w < 16; w++ {
			idx := tid*16 + w
			got := c2.CurrentState().Load(idx)
			// Last write to idx: the largest i ≤ per with i%16 == w.
			last := uint64(per - (per-w)%16)
			want := uint64(tid)<<32 | last
			if got != want {
				t.Fatalf("tid %d word %d = %#x, want %#x", tid, w, got, want)
			}
		}
	}
}
