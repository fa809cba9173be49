package core

import (
	"sync"
	"testing"
)

// TestInvokeDelegatedCreditsOriginators: thread 3 announces its own op and
// ops on behalf of three others; the responses must be the sequential counter
// values and each originator's deactivate parity, the announcer's included,
// must flip to its own seq's low bit.
func TestInvokeDelegatedCreditsOriginators(t *testing.T) {
	const n, k = 4, 8
	for name, c := range vecProtos(shadowHeap(), n, k) {
		t.Run(name, func(t *testing.T) {
			dops := []DelOp{
				{Op: OpCounterAdd, A0: 1, Tid: 3, Seq: 1},
				{Op: OpCounterAdd, A0: 1, Tid: 0, Seq: 1},
				{Op: OpCounterAdd, A0: 1, Tid: 1, Seq: 1},
				{Op: OpCounterAdd, A0: 1, Tid: 2, Seq: 1},
			}
			rets := make([]uint64, len(dops))
			c.InvokeDelegated(3, dops, rets)
			for i, r := range rets {
				if r != uint64(i) {
					t.Fatalf("ret[%d] = %d, want %d", i, r, i)
				}
			}
			if v := c.CurrentState().Load(0); v != 4 {
				t.Fatalf("counter = %d, want 4", v)
			}
			// Each originator's op is now fetchable through its own scalar
			// Recover with the original seq — and must NOT re-execute.
			for i, d := range dops {
				if p := c.DeactParity(d.Tid); p != 1 {
					t.Fatalf("tid %d deactivate parity %d, want 1", d.Tid, p)
				}
				if got := c.Recover(d.Tid, OpCounterAdd, 1, 0, 1); got != rets[i] {
					t.Fatalf("Recover(%d) = %d, want %d", d.Tid, got, rets[i])
				}
			}
			if v := c.CurrentState().Load(0); v != 4 {
				t.Fatalf("counter after recovers = %d, want 4 (re-executed!)", v)
			}
		})
	}
}

// TestInvokeDelegatedNeedsOwnEntry: an announcement is retired by its
// announcer's own entry, so a delegated vector that carries none panics
// before it announces anything.
func TestInvokeDelegatedNeedsOwnEntry(t *testing.T) {
	const n, k = 4, 8
	for name, c := range vecProtos(shadowHeap(), n, k) {
		t.Run(name, func(t *testing.T) {
			dops := []DelOp{
				{Op: OpCounterAdd, A0: 1, Tid: 0, Seq: 1},
				{Op: OpCounterAdd, A0: 1, Tid: 1, Seq: 1},
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("a delegated vector without the announcer's own entry did not panic")
					}
				}()
				c.InvokeDelegated(3, dops, make([]uint64, len(dops)))
			}()
			if v := c.CurrentState().Load(0); v != 0 {
				t.Fatalf("counter = %d after the refused vector, want 0", v)
			}
			// The instance is untouched: the announcer's next op runs.
			if got := c.Invoke(3, OpCounterAdd, 1, 0, 1); got != 0 {
				t.Fatalf("Invoke after the refused vector = %d, want 0", got)
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
				seq := uint64(r) + 1
				dops := []DelOp{
					{Op: OpCounterAdd, A0: 1, Tid: 0, Seq: seq},
					{Op: OpCounterAdd, A0: 1, Tid: 1, Seq: seq},
					{Op: OpCounterAdd, A0: 1, Tid: 3, Seq: seq},
					{Op: OpCounterAdd, A0: 1, Tid: 2, Seq: seq},
				}
				rets := make([]uint64, len(dops))
				c.InvokeDelegated(3, dops, rets)
				for _, v := range rets {
					if seen[v] {
						t.Fatalf("round %d: duplicate return %d", r, v)
					}
					seen[v] = true
				}
			}
			if v := c.CurrentState().Load(0); v != 4*rounds {
				t.Fatalf("counter = %d, want %d", v, 4*rounds)
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

// TestDelegateConcurrentMix runs a delegating announcer alongside a thread
// doing its own scalar invokes on the same instance, the fabric's steady
// state: sweeper tid 3 announces its own op and those of parked tids 0..1
// while tid 2 drives scalar ops for itself.
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
						{Op: OpCounterAdd, A0: 1, Tid: 3, Seq: uint64(r) + 1},
						{Op: OpCounterAdd, A0: 1, Tid: 0, Seq: uint64(r) + 1},
						{Op: OpCounterAdd, A0: 1, Tid: 1, Seq: uint64(r) + 1},
					}
					rets := make([]uint64, len(dops))
					c.InvokeDelegated(3, dops, rets)
				}
			}()
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					c.Invoke(2, OpCounterAdd, 1, 0, uint64(r)+1)
				}
			}()
			wg.Wait()
			if v := c.CurrentState().Load(0); v != 4*rounds {
				t.Fatalf("counter = %d, want %d", v, 4*rounds)
			}
		})
	}
}
