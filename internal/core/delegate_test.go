package core

import (
	"sync"
	"testing"
)

// TestInvokeDelegatedCreditsOriginators: one thread announces ops on behalf
// of three others; the responses must be the sequential counter values and
// each originator's deactivate parity must flip to its own seq's low bit.
func TestInvokeDelegatedCreditsOriginators(t *testing.T) {
	const n, k = 4, 8
	for name, c := range vecProtos(shadowHeap(), n, k) {
		t.Run(name, func(t *testing.T) {
			dops := []DelOp{
				{Op: OpCounterAdd, A0: 1, Tid: 0, Seq: 1},
				{Op: OpCounterAdd, A0: 1, Tid: 1, Seq: 1},
				{Op: OpCounterAdd, A0: 1, Tid: 2, Seq: 1},
			}
			rets := make([]uint64, 3)
			c.InvokeDelegated(3, 1, dops, rets)
			seen := map[uint64]bool{}
			for i, r := range rets {
				if r > 2 {
					t.Fatalf("ret[%d] = %d, want 0..2", i, r)
				}
				if seen[r] {
					t.Fatalf("duplicate return %d", r)
				}
				seen[r] = true
			}
			if v := c.CurrentState().Load(0); v != 3 {
				t.Fatalf("counter = %d, want 3", v)
			}
			// Each originator's op is now fetchable through its own scalar
			// Recover with the original seq — and must NOT re-execute.
			for tid := 0; tid < 3; tid++ {
				got := c.(Protocol).Recover(tid, OpCounterAdd, 1, 0, 1)
				if got != rets[tid] {
					t.Fatalf("Recover(%d) = %d, want %d", tid, got, rets[tid])
				}
			}
			if v := c.CurrentState().Load(0); v != 3 {
				t.Fatalf("counter after recovers = %d, want 3 (re-executed!)", v)
			}
		})
	}
}

// TestInvokeDelegatedRepeatedRounds drives many delegated rounds and checks
// both the final sum and that every response is unique (each increment
// observed a distinct previous value).
func TestInvokeDelegatedRepeatedRounds(t *testing.T) {
	const n, k, rounds = 4, 8, 50
	for name, c := range vecProtos(shadowHeap(), n, k) {
		t.Run(name, func(t *testing.T) {
			seen := map[uint64]bool{}
			for r := 0; r < rounds; r++ {
				dops := []DelOp{
					{Op: OpCounterAdd, A0: 1, Tid: 0, Seq: uint64(r) + 1},
					{Op: OpCounterAdd, A0: 1, Tid: 1, Seq: uint64(r) + 1},
					{Op: OpCounterAdd, A0: 1, Tid: 2, Seq: uint64(r) + 1},
				}
				rets := make([]uint64, 3)
				c.InvokeDelegated(3, uint64(r)+1, dops, rets)
				for _, v := range rets {
					if seen[v] {
						t.Fatalf("round %d: duplicate return %d", r, v)
					}
					seen[v] = true
				}
			}
			if v := c.CurrentState().Load(0); v != 3*rounds {
				t.Fatalf("counter = %d, want %d", v, 3*rounds)
			}
		})
	}
}

// TestDelegateSelfVector: a thread delegates a multi-op group to itself (the
// cross-shard transaction shape). Responses land in program order in the
// thread's own ReturnVal block, and RecoverVec replays idempotently.
func TestDelegateSelfVector(t *testing.T) {
	const n, k = 2, 8
	h := shadowHeap()
	for name, c := range vecProtos(h, n, k) {
		t.Run(name, func(t *testing.T) {
			ops := []VecOp{{Op: OpCounterAdd, A0: 1}, {Op: OpCounterAdd, A0: 1}, {Op: OpCounterAdd, A0: 1}}
			rets := make([]uint64, 3)
			c.InvokeVec(0, ops, 1, rets)
			for i, r := range rets {
				if r != uint64(i) {
					t.Fatalf("ret[%d] = %d, want %d", i, r, i)
				}
			}
			// Replaying the same vector with the same seq must fetch, not
			// re-execute.
			rets2 := make([]uint64, 3)
			c.RecoverVec(0, ops, 1, rets2)
			for i := range rets2 {
				if rets2[i] != rets[i] {
					t.Fatalf("RecoverVec ret[%d] = %d, want %d", i, rets2[i], rets[i])
				}
			}
			if v := c.CurrentState().Load(0); v != 3 {
				t.Fatalf("counter = %d, want 3", v)
			}
		})
	}
}

// TestDelegateConcurrentMix runs delegating announcers alongside threads
// doing their own scalar invokes on the same instance, the fabric's steady
// state: combiner tid n-1 delegates for parked tids 0..1 while tid 2 drives
// scalar ops for itself.
func TestDelegateConcurrentMix(t *testing.T) {
	const n, k, rounds = 4, 8, 40
	for name, c := range vecProtos(shadowHeap(), n, k) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					dops := []DelOp{
						{Op: OpCounterAdd, A0: 1, Tid: 0, Seq: uint64(r) + 1},
						{Op: OpCounterAdd, A0: 1, Tid: 1, Seq: uint64(r) + 1},
					}
					rets := make([]uint64, 2)
					c.InvokeDelegated(3, uint64(r)+1, dops, rets)
				}
			}()
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					c.(Protocol).Invoke(2, OpCounterAdd, 1, 0, uint64(r)+1)
				}
			}()
			wg.Wait()
			if v := c.CurrentState().Load(0); v != 3*rounds {
				t.Fatalf("counter = %d, want %d", v, 3*rounds)
			}
		})
	}
}
