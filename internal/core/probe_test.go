package core_test

// Integration of the combining protocols with their instrumentation, as table
// cases over both protocols — everything here runs through the shared
// skeleton's SetProbe and hook sites. The Comb sink must see real combining
// (degree > 1 under concurrency) and account for every operation exactly once
// as either combined or discarded-and-retried; the span hooks must cover the
// full lifecycle (publish, combine, persist, and wait/backoff under
// concurrency); and the probe must be free on both sides — zero allocations
// with nothing installed, and none added by an installed SpanLog, since
// tracing that allocates would distort the very latencies it attributes.

import (
	"runtime"
	"sync"
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/memmodel"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// obs.CombStats must satisfy the sink interface core declares.
var _ core.CombTracker = (*obs.CombStats)(nil)

// mulOne is the float64 bit pattern of 1.0 (a no-op multiplicand).
const mulOne = 0x3FF0000000000000

// protocols is the table every test here ranges over.
var protocols = []struct {
	name  string
	build func(h *pmem.Heap, name string, n int, obj core.Object, o core.CombOpts) core.Protocol
}{
	{"PBComb", func(h *pmem.Heap, name string, n int, obj core.Object, o core.CombOpts) core.Protocol {
		return core.NewPBCombWith(h, name, n, obj, o)
	}},
	{"PWFComb", func(h *pmem.Heap, name string, n int, obj core.Object, o core.CombOpts) core.Protocol {
		return core.NewPWFCombWith(h, name, n, obj, o)
	}},
}

// runThreads has each of c's n threads invoke op(a0) per times.
func runThreads(c core.Protocol, n int, per, op, a0 uint64) {
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := uint64(1); i <= per; i++ {
				c.Invoke(tid, op, a0, 0, i)
			}
		}(tid)
	}
	wg.Wait()
}

func TestProbeAccounting(t *testing.T) {
	const threads, per, total = 8, 2000, 8 * 2000
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount}) // default costs: real combining windows
			c := p.build(h, "c", threads, core.AtomicFloat{Initial: 1}, core.CombOpts{})
			st := obs.NewCombStats(threads)
			c.SetProbe(core.Probe{Comb: st})
			runThreads(c, threads, per, core.OpAtomicFloatMul, mulOne)
			cs := st.Snapshot()
			// Every operation is served by exactly one successful round.
			if cs.CombinedOps != total {
				t.Fatalf("combined ops = %d, want %d", cs.CombinedOps, total)
			}
			if cs.Rounds == 0 || cs.Rounds > total {
				t.Fatalf("rounds = %d", cs.Rounds)
			}
			if cs.MeanDegree < 1 {
				t.Fatalf("mean degree = %.2f", cs.MeanDegree)
			}
			if p.name == "PWFComb" {
				if cs.LockFails != 0 {
					t.Fatalf("LL/SC protocol reported %d lock failures", cs.LockFails)
				}
				// Copies happen on every attempt (successful or discarded), so
				// there are at least as many copies as successful rounds.
				if cs.Copies < cs.Rounds {
					t.Fatalf("copies = %d < rounds = %d", cs.Copies, cs.Rounds)
				}
				return
			}
			if runtime.GOMAXPROCS(0) >= 4 && cs.MeanDegree <= 1.0 {
				// With 8 threads against the default persistence costs the
				// combiner must batch: the whole point of the protocol. (Skip
				// the assertion on effectively-serial hosts where no overlap
				// can form.)
				t.Fatalf("no combining observed: mean degree %.4f over %d rounds", cs.MeanDegree, cs.Rounds)
			}
			if cs.Copies != cs.Rounds {
				t.Fatalf("copies = %d, rounds = %d (PBcomb copies once per round)", cs.Copies, cs.Rounds)
			}
			if cs.SCFails != 0 {
				t.Fatalf("lock-based protocol reported %d SC failures", cs.SCFails)
			}
		})
	}
}

func TestProbeSpanLifecycle(t *testing.T) {
	const threads, per, ops = 4, 500, 4 * 500
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount})
			c := p.build(h, "spans", threads, core.Counter{}, core.CombOpts{})
			// Ring large enough that nothing wraps: per-op publish+backoff plus
			// the combiner-side spans all stay readable for exact accounting.
			spans := obs.NewSpanLog(threads, 1<<13)
			c.SetProbe(core.Probe{Spans: spans})
			runThreads(c, threads, per, core.OpCounterAdd, 1)
			if got := c.CurrentState().Load(0); got != ops {
				t.Fatalf("counter = %d, want %d", got, ops)
			}
			// Every op publishes exactly once.
			if n := spans.PhaseHist(obs.PhasePublish).Count(); n != ops {
				t.Fatalf("publish spans = %d, want %d", n, ops)
			}
			// Every op backs off once between publish and compete.
			if n := spans.PhaseHist(obs.PhaseBackoff).Count(); n != ops {
				t.Fatalf("backoff spans = %d, want %d", n, ops)
			}
			combine := spans.PhaseHist(obs.PhaseCombine)
			persist := spans.PhaseHist(obs.PhasePersist)
			if combine.Count() == 0 || persist.Count() == 0 {
				t.Fatalf("no combiner-side spans: combine=%d persist=%d",
					combine.Count(), persist.Count())
			}
			// Spans must have recorded real time: persist spans cover the
			// simulated pwb/pfence/psync costs, so their mean cannot be zero.
			if persist.Mean() == 0 {
				t.Fatal("persist spans recorded no duration")
			}
			var served uint64
			for tid := 0; tid < spans.Threads(); tid++ {
				for _, s := range spans.Spans(tid) {
					if s.End < s.Start {
						t.Fatalf("tid %d: negative span %+v", tid, s)
					}
					if s.Phase == obs.PhaseCombine {
						served += s.Arg
					}
				}
			}
			// Combine-span args sum to the ops each attempt served; PBcomb has
			// no discarded rounds, so every op is accounted exactly once.
			if p.name == "PBComb" && served != ops {
				t.Fatalf("combine spans served %d ops, want %d", served, ops)
			}
		})
	}
}

// A vector's size reaches the installed Comb sink exactly once per
// announcement, on both protocols.
func TestVecBatchSizeTracker(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
			c := p.build(h, "v", 1, core.Counter{}, core.CombOpts{VecCap: 4})
			st := obs.NewCombStats(1)
			c.SetProbe(core.Probe{Comb: st})
			ops := []core.VecOp{{Op: core.OpCounterAdd, A0: 1}, {Op: core.OpCounterAdd, A0: 1}, {Op: core.OpCounterAdd, A0: 1}}
			c.InvokeVec(0, ops, 1, make([]uint64, 3))
			c.InvokeVec(0, ops[:2], 2, make([]uint64, 2))
			cs := st.Snapshot()
			if cs.Batches != 2 || cs.BatchMax != 3 || cs.BatchMeanSize != 2.5 {
				t.Fatalf("recorded %d batches, max %d, mean %v; want sizes [3 2]",
					cs.Batches, cs.BatchMax, cs.BatchMeanSize)
			}
		})
	}
}

// Without a probe, and after SetProbe(Probe{}) cleared one, the protocols
// must run unchanged and report to nothing: each sink sees exactly the one
// operation invoked while it was installed.
func TestSetProbeNilSafe(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
			c := p.build(h, "c", 2, core.AtomicFloat{Initial: 1}, core.CombOpts{})
			c.Invoke(0, core.OpAtomicFloatMul, mulOne, 0, 1)
			st, spans, mem := obs.NewCombStats(2), obs.NewSpanLog(2, 1<<6), memmodel.New(2)
			c.SetProbe(core.Probe{Mem: mem, Comb: st, Spans: spans})
			c.Invoke(0, core.OpAtomicFloatMul, mulOne, 0, 2)
			seen := mem.Totals()
			c.SetProbe(core.Probe{})
			c.Invoke(0, core.OpAtomicFloatMul, mulOne, 0, 3)
			if got := st.Snapshot().CombinedOps; got != 1 {
				t.Fatalf("Comb saw %d ops, want exactly the one invoked while installed", got)
			}
			if got := spans.PhaseHist(obs.PhasePublish).Count(); got != 1 {
				t.Fatalf("Spans saw %d publishes, want 1", got)
			}
			if seen.StateStores == 0 || seen.MetaStores == 0 {
				t.Fatalf("Mem saw no stores while installed: %+v", seen)
			}
			if got := mem.Totals(); got != seen {
				t.Fatalf("Mem counted after uninstall: %+v, was %+v", got, seen)
			}
		})
	}
}

// vec16 returns a 16-op counter vector and its response buffer.
func vec16() ([]core.VecOp, []uint64) {
	ops := make([]core.VecOp, 16)
	for i := range ops {
		ops[i] = core.VecOp{Op: core.OpCounterAdd, A0: 1}
	}
	return ops, make([]uint64, 16)
}

// The disabled path — no probe installed — must cost exactly what the
// protocol costs: the hook sites are nil checks, no timestamps, and not one
// allocation per Invoke or per 16-op InvokeVec. The enabled path must also add
// zero allocations (SpanLog rings are preallocated).
func TestSpanHooksAllocFree(t *testing.T) {
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
			ops, rets := vec16()
			for _, probe := range []core.Probe{{}, {Spans: obs.NewSpanLog(1, 1<<10)}} {
				c := p.build(h, "a", 1, core.Counter{}, core.CombOpts{VecCap: 16})
				c.SetProbe(probe)
				seq := uint64(0)
				if a := testing.AllocsPerRun(500, func() {
					seq++
					c.Invoke(0, core.OpCounterAdd, 1, 0, seq)
				}); a != 0 {
					t.Fatalf("Invoke allocates %v/op (spans installed: %v)", a, probe.Spans != nil)
				}
				if a := testing.AllocsPerRun(500, func() {
					seq++
					c.InvokeVec(0, ops, seq, rets)
				}); a != 0 {
					t.Fatalf("16-op InvokeVec allocates %v/vector (spans installed: %v)", a, probe.Spans != nil)
				}
			}
		})
	}
}

// BenchmarkInvokeSpansOff/On quantify the tracing overhead directly; the
// disabled path is the one the <2%-of-throughput acceptance bound applies
// to, and both must report 0 allocs/op.
func BenchmarkInvokeSpansOff(b *testing.B) {
	benchInvoke(b, protocols[0].build, core.Probe{}, false)
}

func BenchmarkInvokeSpansOn(b *testing.B) {
	benchInvoke(b, protocols[0].build, core.Probe{Spans: obs.NewSpanLog(1, obs.DefaultSpanCap)}, false)
}

// BenchmarkInvokeNoProbe is the parity check for SetProbe(Probe{}): an
// instance whose full probe was uninstalled must run Invoke and a 16-op
// InvokeVec at the speed and allocation count (0) of one never instrumented
// (BenchmarkInvokeSpansOff is the same instance as PBComb/Invoke here), on
// both protocols.
func BenchmarkInvokeNoProbe(b *testing.B) {
	for _, p := range protocols {
		for _, vec := range []bool{false, true} {
			name := p.name + "/Invoke"
			if vec {
				name = p.name + "/InvokeVec16"
			}
			b.Run(name, func(b *testing.B) {
				full := core.Probe{Mem: memmodel.New(1), Comb: obs.NewCombStats(1), Spans: obs.NewSpanLog(1, 1<<10)}
				benchInvoke(b, p.build, full, vec)
			})
		}
	}
}

// benchInvoke times Invoke (or, with vec, a 16-op InvokeVec) on a one-thread
// counter with probe installed — a probe carrying a Mem tracker is installed
// and then uninstalled before the loop.
func benchInvoke(b *testing.B, build func(*pmem.Heap, string, int, core.Object, core.CombOpts) core.Protocol, probe core.Probe, vec bool) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
	c := build(h, "b", 1, core.Counter{}, core.CombOpts{VecCap: 16})
	c.SetProbe(probe)
	if probe.Mem != nil {
		c.SetProbe(core.Probe{})
	}
	ops, rets := vec16()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vec {
			c.InvokeVec(0, ops, uint64(i)+1, rets)
		} else {
			c.Invoke(0, core.OpCounterAdd, 1, 0, uint64(i)+1)
		}
	}
}

// TestScalarInvokeCounts pins what one thread's Invoke costs on each
// protocol, exactly: the Mem tracker's counters (Table 1's misses, state
// reads and state stores, and the metadata accesses beside them) and the
// pwbs, pfences and psyncs, per Invoke of the paper's AtomicFloat after
// warm-up. One thread never misses: no other thread takes its lines away.
func TestScalarInvokeCounts(t *testing.T) {
	const warm, ops = 8, 64
	type counts struct {
		mem                   memmodel.Totals
		pwbs, pfences, psyncs uint64
	}
	// Per op. PBcomb: the served check, the record's state and tail, the
	// lock read and CAS, MIndex; PWFcomb: the same without the lock.
	want := map[string]counts{
		"PBComb":  {memmodel.Totals{StateReads: 1, StateStores: 1, MetaReads: 2, MetaStores: 5}, 2, 1, 1},
		"PWFComb": {memmodel.Totals{StateReads: 1, StateStores: 1, MetaReads: 1, MetaStores: 3}, 2, 1, 1},
	}
	for _, p := range protocols {
		t.Run(p.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
			c := p.build(h, "t1", 1, core.AtomicFloat{Initial: 1}, core.CombOpts{})
			mem := memmodel.New(1)
			c.SetProbe(core.Probe{Mem: mem})
			seq := uint64(0)
			for ; seq < warm; seq++ {
				c.Invoke(0, core.OpAtomicFloatMul, mulOne, 0, seq+1)
			}
			m0, s0 := mem.Totals(), h.Stats()
			for ; seq < warm+ops; seq++ {
				c.Invoke(0, core.OpAtomicFloatMul, mulOne, 0, seq+1)
			}
			m1, s1 := mem.Totals(), h.Stats()
			got := counts{
				mem: memmodel.Totals{
					Misses:      (m1.Misses - m0.Misses) / ops,
					StateReads:  (m1.StateReads - m0.StateReads) / ops,
					StateStores: (m1.StateStores - m0.StateStores) / ops,
					MetaReads:   (m1.MetaReads - m0.MetaReads) / ops,
					MetaStores:  (m1.MetaStores - m0.MetaStores) / ops,
				},
				pwbs: (s1.Pwbs - s0.Pwbs) / ops, pfences: (s1.Pfences - s0.Pfences) / ops, psyncs: (s1.Psyncs - s0.Psyncs) / ops,
			}
			if s1.Pwbs-s0.Pwbs != got.pwbs*ops || m1.MetaStores-m0.MetaStores != got.mem.MetaStores*ops {
				t.Fatalf("the %d Invokes did not cost the same each", ops)
			}
			if got != want[p.name] {
				t.Fatalf("an Invoke costs %+v, want %+v", got, want[p.name])
			}
		})
	}
}
