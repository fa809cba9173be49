package core

import (
	"testing"

	"pcomb/internal/pmem"
)

// Recovery idempotence: running a recovery function again — on the same
// re-opened instance or after yet another re-open — must return the same
// response and leave the durable state untouched. This is what makes the
// crash-during-recovery campaigns in internal/crashtest sound: a second
// crash can force recovery to be re-run from scratch.

func recoverTwiceCounter(t *testing.T, mk func(h *pmem.Heap) instance) {
	t.Helper()
	const opsBefore = 3
	crashedOnce := false
	for k := int64(1); ; k++ {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
		c := mk(h)
		for i := 0; i < opsBefore; i++ {
			c.Invoke(0, OpCounterAdd, 1, 0, uint64(i)+1)
		}
		c.Ctx(0).SetCrashAt(k)
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
			c.Invoke(0, OpCounterAdd, 1, 0, opsBefore+1)
		}()
		if !crashed {
			if !crashedOnce {
				t.Fatal("sweep never crashed")
			}
			return
		}
		crashedOnce = true
		h.Crash(pmem.DropUnfenced, k)

		c2 := mk(h)
		r1 := c2.Recover(0, OpCounterAdd, 1, 0, opsBefore+1)
		r2 := c2.Recover(0, OpCounterAdd, 1, 0, opsBefore+1)
		if r1 != r2 {
			t.Fatalf("crash@%d: Recover returned %d then %d", k, r1, r2)
		}
		if v := c2.CurrentState().Load(0); v != opsBefore+1 {
			t.Fatalf("crash@%d: double recovery left counter = %d, want %d", k, v, opsBefore+1)
		}
		// Re-open once more (no crash in between) and recover a third time.
		c3 := mk(h)
		if r3 := c3.Recover(0, OpCounterAdd, 1, 0, opsBefore+1); r3 != r1 {
			t.Fatalf("crash@%d: re-opened Recover returned %d, want %d", k, r3, r1)
		}
		if v := c3.CurrentState().Load(0); v != opsBefore+1 {
			t.Fatalf("crash@%d: third recovery left counter = %d", k, v)
		}
	}
}

func TestPBCombRecoverIdempotent(t *testing.T) {
	recoverTwiceCounter(t, func(h *pmem.Heap) instance { return NewPBComb(h, "cnt", 1, Counter{}) })
}

func TestPWFCombRecoverIdempotent(t *testing.T) {
	recoverTwiceCounter(t, func(h *pmem.Heap) instance { return NewPWFComb(h, "cnt", 1, Counter{}) })
}

// Re-opening an uncrashed heap must preserve the durable state and keep
// serving operations — the campaign engine does exactly this between
// rounds when a crash point was never reached.
func TestReopenUncrashedHeap(t *testing.T) {
	for _, waitFree := range []bool{false, true} {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
		mk := func() instance {
			if waitFree {
				return NewPWFComb(h, "cnt", 1, Counter{})
			}
			return NewPBComb(h, "cnt", 1, Counter{})
		}
		c := mk()
		for i := uint64(1); i <= 10; i++ {
			c.Invoke(0, OpCounterAdd, 1, 0, i)
		}
		c2 := mk()
		if v := c2.CurrentState().Load(0); v != 10 {
			t.Fatalf("waitFree=%v: re-open lost state: counter = %d", waitFree, v)
		}
		if r := c2.Invoke(0, OpCounterAdd, 1, 0, 11); r != 10 {
			t.Fatalf("waitFree=%v: op after re-open returned %d, want 10", waitFree, r)
		}
	}
}
