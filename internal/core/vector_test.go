package core

import (
	"fmt"
	"sync"
	"testing"

	"pcomb/internal/pmem"
)

// instance is Protocol plus the concrete methods tests call on either
// protocol.
type instance interface {
	Protocol
	Recover(tid int, op, a0, a1, seq uint64) uint64
	VecCap() int
	Ctx(tid int) *pmem.Ctx
}

// vecProto builds one protocol instance with vector capacity k.
func vecProtos(h *pmem.Heap, n, k int) map[string]instance {
	return map[string]instance{
		"PB":  NewPBCombWith(h, "vpb", n, Counter{}, CombOpts{VecCap: k}),
		"PWF": NewPWFCombWith(h, "vwf", n, Counter{}, CombOpts{VecCap: k}),
	}
}

func TestInvokeVecSequential(t *testing.T) {
	const k = 8
	for name, c := range vecProtos(shadowHeap(), 1, k) {
		t.Run(name, func(t *testing.T) {
			ops := make([]VecOp, k)
			for i := range ops {
				ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
			}
			rets := make([]uint64, k)
			seq := uint64(1)
			for round := 0; round < 5; round++ {
				c.InvokeVec(0, ops, seq, rets)
				// Per-op returns must be the previous counter values, in the
				// vector's (program) order.
				for i, r := range rets {
					if want := uint64(round*k + i); r != want {
						t.Fatalf("round %d ret[%d] = %d, want %d", round, i, r, want)
					}
				}
				seq++
			}
			if v := c.CurrentState().Load(0); v != 5*k {
				t.Fatalf("counter = %d, want %d", v, 5*k)
			}
		})
	}
}

func TestInvokeVecConcurrentUniqueReturns(t *testing.T) {
	const n, k, rounds = 8, 4, 60
	for name, c := range vecProtos(shadowHeap(), n, k) {
		t.Run(name, func(t *testing.T) {
			got := make([][]uint64, n)
			var wg sync.WaitGroup
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					ops := make([]VecOp, k)
					for i := range ops {
						ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
					}
					rets := make([]uint64, k)
					for r := 0; r < rounds; r++ {
						c.InvokeVec(tid, ops, uint64(r)+1, rets)
						got[tid] = append(got[tid], rets...)
					}
				}(tid)
			}
			wg.Wait()
			// Every fetch&add(1) across all threads and vector positions must
			// have returned a distinct previous value 0..n*k*rounds-1.
			seen := make(map[uint64]bool)
			for tid := range got {
				for _, v := range got[tid] {
					if seen[v] {
						t.Fatalf("duplicate fetch&add return %d", v)
					}
					seen[v] = true
				}
			}
			if len(seen) != n*k*rounds {
				t.Fatalf("got %d distinct returns, want %d", len(seen), n*k*rounds)
			}
			if v := c.CurrentState().Load(0); v != n*k*rounds {
				t.Fatalf("counter = %d, want %d", v, n*k*rounds)
			}
		})
	}
}

func TestInvokeVecMixedWithScalar(t *testing.T) {
	// Vectorized and scalar announcements interleave freely on the same
	// instance: odd threads batch, even threads invoke one op at a time.
	const n, k, per = 6, 4, 40
	for name, c := range vecProtos(shadowHeap(), n, k) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			total := 0
			for tid := 0; tid < n; tid++ {
				wg.Add(1)
				if tid%2 == 1 {
					total += per * k
					go func(tid int) {
						defer wg.Done()
						ops := make([]VecOp, k)
						for i := range ops {
							ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
						}
						rets := make([]uint64, k)
						for r := 0; r < per; r++ {
							c.InvokeVec(tid, ops, uint64(r)+1, rets)
						}
					}(tid)
				} else {
					total += per
					go func(tid int) {
						defer wg.Done()
						for r := 0; r < per; r++ {
							c.Invoke(tid, OpCounterAdd, 1, 0, uint64(r)+1)
						}
					}(tid)
				}
			}
			wg.Wait()
			if v := c.CurrentState().Load(0); v != uint64(total) {
				t.Fatalf("counter = %d, want %d", v, total)
			}
		})
	}
}

func TestVecVariableLengths(t *testing.T) {
	// Vectors need not be full: lengths 1..VecCap all work, and a shorter
	// vector after a longer one must not resurrect stale ring entries.
	const k = 8
	for name, c := range vecProtos(shadowHeap(), 1, k) {
		t.Run(name, func(t *testing.T) {
			seq, want := uint64(1), uint64(0)
			for _, l := range []int{k, 1, 3, 2, k, 1} {
				ops := make([]VecOp, l)
				for i := range ops {
					ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
				}
				rets := make([]uint64, l)
				c.InvokeVec(0, ops, seq, rets)
				for i, r := range rets {
					if r != want+uint64(i) {
						t.Fatalf("len %d ret[%d] = %d, want %d", l, i, r, want+uint64(i))
					}
				}
				want += uint64(l)
				seq++
			}
			if v := c.CurrentState().Load(0); v != want {
				t.Fatalf("counter = %d, want %d", v, want)
			}
		})
	}
}

// TestVecCapEnforced: every instance takes vectors of up to max(VecCap, 1)
// operations — VecCap 0 and 1 both mean one — and panics on a longer one.
func TestVecCapEnforced(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		for name, c := range vecProtos(shadowHeap(), 1, k) {
			t.Run(fmt.Sprintf("%s/VecCap=%d", name, k), func(t *testing.T) {
				limit := max(k, 1)
				if c.VecCap() != limit {
					t.Fatalf("VecCap() = %d, want %d", c.VecCap(), limit)
				}
				ops := make([]VecOp, limit+1)
				for i := range ops {
					ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
				}
				rets := make([]uint64, limit+1)
				c.InvokeVec(0, ops[:limit], 1, rets)
				defer func() {
					if recover() == nil {
						t.Fatal("oversized vector did not panic")
					}
				}()
				c.InvokeVec(0, ops, 2, rets)
			})
		}
	}
}

func TestRecoverVecCompleted(t *testing.T) {
	// Crash after a vector fully completed: RecoverVec must report every
	// per-op return without re-executing any of them.
	const k = 4
	mk := map[string]func(h *pmem.Heap) Protocol{
		"PB":  func(h *pmem.Heap) Protocol { return NewPBCombWith(h, "vpb", 1, Counter{}, CombOpts{VecCap: k}) },
		"PWF": func(h *pmem.Heap) Protocol { return NewPWFCombWith(h, "vwf", 1, Counter{}, CombOpts{VecCap: k}) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			h := shadowHeap()
			c := f(h)
			ops := make([]VecOp, k)
			for i := range ops {
				ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
			}
			rets := make([]uint64, k)
			c.InvokeVec(0, ops, 1, rets)
			c.InvokeVec(0, ops, 2, rets)
			h.Crash(pmem.DropUnfenced, 1)
			c2 := f(h)
			got := make([]uint64, k)
			c2.RecoverVec(0, ops, 2, got)
			for i := range got {
				if want := uint64(k + i); got[i] != want {
					t.Fatalf("recovered ret[%d] = %d, want %d", i, got[i], want)
				}
			}
			if v := c2.CurrentState().Load(0); v != 2*k {
				t.Fatalf("RecoverVec re-executed: counter = %d, want %d", v, 2*k)
			}
		})
	}
}

func TestRecoverVecUnapplied(t *testing.T) {
	// Crash before the vector took effect (e.g. mid-publish): RecoverVec must
	// execute the whole vector exactly once.
	const k = 4
	mk := map[string]func(h *pmem.Heap) Protocol{
		"PB":  func(h *pmem.Heap) Protocol { return NewPBCombWith(h, "vpb", 1, Counter{}, CombOpts{VecCap: k}) },
		"PWF": func(h *pmem.Heap) Protocol { return NewPWFCombWith(h, "vwf", 1, Counter{}, CombOpts{VecCap: k}) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			h := shadowHeap()
			c := f(h)
			ops := make([]VecOp, k)
			for i := range ops {
				ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
			}
			rets := make([]uint64, k)
			c.InvokeVec(0, ops, 1, rets)
			// seq=2 never announced before the crash.
			h.Crash(pmem.DropUnfenced, 1)
			c2 := f(h)
			got := make([]uint64, k)
			c2.RecoverVec(0, ops, 2, got)
			for i := range got {
				if want := uint64(k + i); got[i] != want {
					t.Fatalf("recovered ret[%d] = %d, want %d", i, got[i], want)
				}
			}
			if v := c2.CurrentState().Load(0); v != 2*k {
				t.Fatalf("counter = %d, want %d", v, 2*k)
			}
		})
	}
}

func TestVecCrashPointSweep(t *testing.T) {
	// Crash at every persistence event inside an InvokeVec; RecoverVec must
	// make the vector exactly-once and report all k per-op returns.
	const k, before = 3, 2
	mk := map[string]func(h *pmem.Heap) instance{
		"PB":  func(h *pmem.Heap) instance { return NewPBCombWith(h, "vpb", 1, Counter{}, CombOpts{VecCap: k}) },
		"PWF": func(h *pmem.Heap) instance { return NewPWFCombWith(h, "vwf", 1, Counter{}, CombOpts{VecCap: k}) },
	}
	ops := make([]VecOp, k)
	for i := range ops {
		ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			for at := int64(1); ; at++ {
				h := shadowHeap()
				c := f(h)
				rets := make([]uint64, k)
				for r := 0; r < before; r++ {
					c.InvokeVec(0, ops, uint64(r)+1, rets)
				}
				ctx := c.Ctx(0)
				base := ctx.Instr()
				ctx.SetCrashAt(at)
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
					c.InvokeVec(0, ops, before+1, rets)
				}()
				if !crashed {
					if at <= 1 {
						t.Fatal("sweep never crashed")
					}
					if ctx.Instr()-base >= at {
						t.Fatal("crash injection failed to fire")
					}
					return
				}
				h.Crash(pmem.DropUnfenced, at)
				c2 := f(h)
				got := make([]uint64, k)
				c2.RecoverVec(0, ops, before+1, got)
				for i := range got {
					if want := uint64(before*k + i); got[i] != want {
						t.Fatalf("crash@%d: ret[%d] = %d, want %d", at, i, got[i], want)
					}
				}
				if v := c2.CurrentState().Load(0); v != uint64((before+1)*k) {
					t.Fatalf("crash@%d: counter = %d, want %d", at, v, (before+1)*k)
				}
			}
		})
	}
}

func TestVecSparseMatchesDense(t *testing.T) {
	// Same batched history against sparse and dense instances of both
	// protocols must produce identical per-op returns and final state.
	const n, k = 1, 6
	hist := [][]VecOp{}
	for r := 0; r < 10; r++ {
		l := 1 + r%k
		v := make([]VecOp, l)
		for i := range v {
			v[i] = VecOp{Op: OpCounterAdd, A0: uint64(r + i + 1)}
		}
		hist = append(hist, v)
	}
	run := func(c Protocol) ([]uint64, uint64) {
		var all []uint64
		for r, v := range hist {
			rets := make([]uint64, len(v))
			c.InvokeVec(0, v, uint64(r)+1, rets)
			all = append(all, rets...)
		}
		return all, c.CurrentState().Load(0)
	}
	type mk struct {
		name string
		f    func(h *pmem.Heap) Protocol
	}
	pairs := [][2]mk{
		{{"PBdense", func(h *pmem.Heap) Protocol {
			return NewPBCombWith(h, "d", n, Counter{}, CombOpts{VecCap: k})
		}}, {"PBsparse", func(h *pmem.Heap) Protocol {
			return NewPBCombWith(h, "s", n, markedCounter{}, CombOpts{VecCap: k})
		}}},
		{{"PWFdense", func(h *pmem.Heap) Protocol {
			return NewPWFCombWith(h, "d", n, Counter{}, CombOpts{VecCap: k})
		}}, {"PWFsparse", func(h *pmem.Heap) Protocol {
			return NewPWFCombWith(h, "s", n, markedCounter{}, CombOpts{VecCap: k})
		}}},
	}
	for _, p := range pairs {
		t.Run(p[0].name+"_vs_"+p[1].name, func(t *testing.T) {
			dr, dv := run(p[0].f(shadowHeap()))
			sr, sv := run(p[1].f(shadowHeap()))
			if dv != sv {
				t.Fatalf("final state differs: dense %d sparse %d", dv, sv)
			}
			for i := range dr {
				if dr[i] != sr[i] {
					t.Fatalf("ret %d differs: dense %d sparse %d", i, dr[i], sr[i])
				}
			}
		})
	}
}

// TestVecCostsOneRound: the announcement block is volatile, so a vector
// costs the round that serves it and nothing more — after warm-up, one
// InvokeVec of d ops issues exactly the pwbs, pfences and psyncs of one scalar
// Invoke on the same dense single-thread instance, whatever d. On instances
// built with VecCap 0 and 1 a one-op InvokeVec and RecoverVec cost exactly an
// Invoke too: every instance takes vectors.
func TestVecCostsOneRound(t *testing.T) {
	type cost struct{ pwbs, pfences, psyncs uint64 }
	measure := func(h *pmem.Heap, f func()) cost {
		before := h.Stats()
		f()
		after := h.Stats()
		return cost{after.Pwbs - before.Pwbs, after.Pfences - before.Pfences, after.Psyncs - before.Psyncs}
	}
	for _, name := range []string{"PB", "PWF"} {
		for _, c := range []struct{ k, d int }{{16, 1}, {16, 4}, {16, 16}, {0, 1}, {1, 1}} {
			sub := fmt.Sprintf("%s/d=%d", name, c.d)
			if c.k != 16 {
				sub = fmt.Sprintf("%s/VecCap=%d/d=%d", name, c.k, c.d)
			}
			t.Run(sub, func(t *testing.T) {
				h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
				p := vecProtos(h, 1, c.k)[name]
				ops := make([]VecOp, c.d)
				for i := range ops {
					ops[i] = VecOp{Op: OpCounterAdd, A0: 1}
				}
				rets := make([]uint64, c.d)
				seq := uint64(0)
				for i := 0; i < 4; i++ { // warm-up: both record slots written
					seq++
					p.Invoke(0, OpCounterAdd, 1, 0, seq)
					seq++
					p.InvokeVec(0, ops, seq, rets)
				}
				seq++
				scalar := measure(h, func() { p.Invoke(0, OpCounterAdd, 1, 0, seq) })
				seq++
				vec := measure(h, func() { p.InvokeVec(0, ops, seq, rets) })
				if vec != scalar {
					t.Fatalf("a %d-op vector cost %+v, a scalar round %+v", c.d, vec, scalar)
				}
				if c.d != 1 {
					return
				}
				// A vector of one that never announced: RecoverVec runs it.
				seq++
				rec := measure(h, func() { p.RecoverVec(0, ops, seq, rets) })
				if rec != scalar {
					t.Fatalf("a one-op RecoverVec cost %+v, a scalar round %+v", rec, scalar)
				}
			})
		}
	}
}
