package harness

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"

	"pcomb/internal/baselines/ptm"
	"pcomb/internal/baselines/queues"
	"pcomb/internal/baselines/stacks"
	"pcomb/internal/baselines/volatilecomb"
	"pcomb/internal/core"
	"pcomb/internal/heap"
	"pcomb/internal/memmodel"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
)

// kMul is the AtomicFloat multiplier (a value close to 1 so 10^7 operations
// stay in float range, as the benchmark requires).
var kMul = math.Float64bits(1.0000001)

// Algo builds one algorithm instance for a point and returns the heap whose
// counters describe it plus the per-operation closure. Exported so
// bench_test.go can drive individual (algorithm, thread-count) points under
// testing.B control.
type Algo struct {
	Name  string
	Build func(cfg Config, n int) (*pmem.Heap, OpFunc)
}

func runSweep(cfg Config, algos []Algo) []Series {
	out := make([]Series, len(algos))
	for ai, a := range algos {
		out[ai].Name = a.Name
		for _, n := range cfg.Threads {
			// Level the field between points: a point must not pay for the
			// garbage of the points that happened to run before it.
			runtime.GC()
			pcfg := cfg
			var m *obs.Metrics
			if cfg.Metrics {
				m = obs.NewMetrics(n)
				pcfg.obsM = m
			}
			var spans *obs.SpanLog
			if cfg.SpanCap != 0 {
				spans = obs.NewSpanLog(n, cfg.SpanCap)
				pcfg.obsSpans = spans
			}
			h, op := a.Build(pcfg, n)
			if cfg.OnStart != nil {
				cfg.OnStart(a.Name, n, m, spans)
			}
			res := measure(a.Name, h, n, cfg.Ops, op, m, spans)
			out[ai].Points = append(out[ai].Points, res)
			if cfg.OnPoint != nil {
				cfg.OnPoint(res)
			}
			if cfg.OnSpans != nil && spans != nil {
				cfg.OnSpans(a.Name, n, spans)
			}
		}
	}
	return out
}

// probe returns the point's combining-stats sink and span log — whichever
// instrumentation is enabled — as the one core.Probe the algorithm builders
// install on the structure under test.
func (cfg Config) probe() core.Probe {
	p := core.Probe{Spans: cfg.obsSpans}
	if cfg.obsM != nil {
		p.Comb = cfg.obsM.Comb
	}
	return p
}

// FigureAlgos returns the algorithm set of a figure ("1a", "2a", "2b",
// "3a", "4") for point-wise benchmarking.
func FigureAlgos(fig string) []Algo {
	switch fig {
	case "1a", "1b":
		return fig1Algos()
	case "2a":
		return fig2aAlgos()
	case "2b", "2c":
		return fig2bAlgos()
	case "3a":
		return fig3aAlgos()
	case "4":
		return fig4Algos()
	}
	return nil
}

func newHeap(cfg Config) *pmem.Heap { return pmem.NewHeap(cfg.Persist) }

// --- Figure 1: persistent AtomicFloat ---------------------------------

func afPBComb(cfg Config, n int) (*pmem.Heap, OpFunc) {
	h := newHeap(cfg)
	c := core.NewPBComb(h, "af", n, core.AtomicFloat{Initial: 1})
	c.SetProbe(cfg.probe())
	return h, func(tid int, i uint64, _ *rand.Rand) {
		c.Invoke(tid, core.OpAtomicFloatMul, kMul, 0, i+1)
	}
}

func afPWFComb(cfg Config, n int) (*pmem.Heap, OpFunc) {
	h := newHeap(cfg)
	c := core.NewPWFComb(h, "af", n, core.AtomicFloat{Initial: 1})
	c.SetProbe(cfg.probe())
	return h, func(tid int, i uint64, _ *rand.Rand) {
		c.Invoke(tid, core.OpAtomicFloatMul, kMul, 0, i+1)
	}
}

func afPTM(kind ptm.Kind) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		af := ptm.NewAtomicFloat(ptm.New(h, "af", kind, n, 8), 1)
		return h, func(tid int, i uint64, _ *rand.Rand) { af.Apply(tid, kMul) }
	}
}

func fig1Algos() []Algo {
	return []Algo{
		{"PBcomb", afPBComb},
		{"PWFcomb", afPWFComb},
		{"RedoOpt", afPTM(ptm.RedoOpt)},
		{"Redo", afPTM(ptm.Redo)},
		{"OneFile", afPTM(ptm.OneFile)},
		{"CX-PTM", afPTM(ptm.CXPTM)},
	}
}

// Fig1a is the persistent AtomicFloat throughput comparison.
func Fig1a(cfg Config) []Series { return runSweep(cfg, fig1Algos()) }

// Fig1b is the same sweep reported as pwb instructions per operation.
func Fig1b(cfg Config) []Series { return Fig1a(cfg) }

// Fig1c compares PBcomb/PWFcomb with and without psync instructions.
func Fig1c(cfg Config) []Series {
	off := cfg
	off.Persist.PsyncOff = true
	on := runSweep(cfg, []Algo{{"PBcomb", afPBComb}, {"PWFcomb", afPWFComb}})
	no := runSweep(off, []Algo{{"PBcomb-(Psync=off)", afPBComb}, {"PWFcomb-(Psync=off)", afPWFComb}})
	return append(on, no...)
}

// --- Figure 2: persistent queues ---------------------------------------

func queueCap(cfg Config, n int) int {
	return int(cfg.Ops) + n*queueChunk + 1024
}

const queueChunk = 128

func qPcomb(kind queue.Kind, recycle bool) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		q := queue.NewOn(h, "q", n, kind, queue.Options{
			Recycling: recycle, Capacity: queueCap(cfg, n), ChunkSize: queueChunk,
		}, nil, 0)
		q.SetProbe(cfg.probe())
		return h, QueueOp(q)
	}
}

func qPTM(kind ptm.Kind) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		words := 2*int(cfg.Ops) + 64
		q := ptm.NewQueue(ptm.New(h, "q", kind, n, words), words)
		return h, func(tid int, i uint64, _ *rand.Rand) {
			if i%2 == 0 {
				q.Enqueue(tid, i+1)
			} else {
				q.Dequeue(tid)
			}
		}
	}
}

func qDurable(profile queues.Profile) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		q := queues.New(h, "q", profile, n, queueCap(cfg, n))
		return h, func(tid int, i uint64, _ *rand.Rand) {
			if i%2 == 0 {
				q.Enqueue(tid, i+1)
			} else {
				q.Dequeue(tid)
			}
		}
	}
}

func fig2aAlgos() []Algo {
	return []Algo{
		{"PBqueue", qPcomb(queue.Blocking, true)},
		{"PWFqueue", qPcomb(queue.WaitFree, false)},
		{"PBqueue-no-rec", qPcomb(queue.Blocking, false)},
		{"RedoOpt", qPTM(ptm.RedoOpt)},
		{"RedoTimed", qPTM(ptm.Redo)},
		{"OneFile", qPTM(ptm.OneFile)},
		{"CX-PTM", qPTM(ptm.CXPTM)},
		{"CX-PUC", qPTM(ptm.CXPUC)},
		{"NormOpt", qDurable(queues.NormOpt)},
		{"FHMP", qDurable(queues.FHMP)},
		{"RomulusLR", qPTM(ptm.RomulusLR)},
		{"RomulusLog", qPTM(ptm.RomulusLog)},
		{"OptLinkedQ", qDurable(queues.OptLinked)},
		{"OptUnlinkedQ", qDurable(queues.OptUnlinked)},
	}
}

// Fig2a is the persistent queue throughput comparison (pairs workload).
func Fig2a(cfg Config) []Series { return runSweep(cfg, fig2aAlgos()) }

func fig2bAlgos() []Algo {
	return []Algo{
		{"PBqueue", qPcomb(queue.Blocking, true)},
		{"PWFqueue", qPcomb(queue.WaitFree, false)},
		{"RedoOpt", qPTM(ptm.RedoOpt)},
		{"Redo", qPTM(ptm.Redo)},
		{"OneFile", qPTM(ptm.OneFile)},
		{"CX-PTM", qPTM(ptm.CXPTM)},
		{"OptLinkedQ", qDurable(queues.OptLinked)},
		{"OptUnlinkedQ", qDurable(queues.OptUnlinked)},
	}
}

// Fig2b is the queue sweep reported as pwbs per operation, over the subset
// of algorithms the paper plots.
func Fig2b(cfg Config) []Series { return runSweep(cfg, fig2bAlgos()) }

// Fig2c is the queue sweep with pwb replaced by a NOP: pure synchronization
// cost.
func Fig2c(cfg Config) []Series {
	cfg.Persist.PwbOff = true
	return Fig2b(cfg)
}

// --- Figure 3a: persistent stacks --------------------------------------

func sPcomb(kind stack.Kind, elim, rec bool) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		s := stack.New(h, "s", n, kind, stack.Options{
			Elimination: elim, Recycling: rec,
			Capacity: queueCap(cfg, n), ChunkSize: queueChunk,
		})
		s.SetProbe(cfg.probe())
		return h, StackOp(s)
	}
}

func sPTM(kind ptm.Kind) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := newHeap(cfg)
		words := 2*int(cfg.Ops) + 64
		s := ptm.NewStack(ptm.New(h, "s", kind, n, words), words)
		return h, func(tid int, i uint64, _ *rand.Rand) {
			if i%2 == 0 {
				s.Push(tid, i+1)
			} else {
				s.Pop(tid)
			}
		}
	}
}

func sDFC(cfg Config, n int) (*pmem.Heap, OpFunc) {
	h := newHeap(cfg)
	s := stacks.New(h, "s", n, queueCap(cfg, n))
	return h, func(tid int, i uint64, _ *rand.Rand) {
		if i%2 == 0 {
			s.Push(tid, i+1)
		} else {
			s.Pop(tid)
		}
	}
}

func fig3aAlgos() []Algo {
	return []Algo{
		{"PBstack", sPcomb(stack.Blocking, true, true)},
		{"PBstack-no-rec", sPcomb(stack.Blocking, true, false)},
		{"PBstack-no-elim", sPcomb(stack.Blocking, false, true)},
		{"PWFstack", sPcomb(stack.WaitFree, true, true)},
		{"PWFstack-no-rec", sPcomb(stack.WaitFree, true, false)},
		{"PWFstack-no-elim", sPcomb(stack.WaitFree, false, true)},
		{"OneFile", sPTM(ptm.OneFile)},
		{"PMDK", sPTM(ptm.Undo)},
		{"DFC", sDFC},
		{"RomulusLog", sPTM(ptm.RomulusLog)},
	}
}

// Fig3a is the persistent stack throughput comparison.
func Fig3a(cfg Config) []Series { return runSweep(cfg, fig3aAlgos()) }

// --- Figure 3b: PBheap across heap bounds ------------------------------

// Fig3b measures PBheap with bounds 64..1024, starting half-full and
// issuing alternating HInsert/HDeleteMin.
func Fig3b(cfg Config) []Series {
	var algos []Algo
	for _, bound := range []int{64, 128, 256, 512, 1024} {
		bound := bound
		algos = append(algos, Algo{
			Name: fmt.Sprintf("PBheap-%d", bound),
			Build: func(cfg Config, n int) (*pmem.Heap, OpFunc) {
				h := newHeap(cfg)
				hp := heap.New(h, "h", n, heap.Blocking, bound, 0)
				hp.SetProbe(cfg.probe())
				rng := rand.New(rand.NewSource(42))
				for i := 0; i < bound/2; i++ {
					hp.Insert(0, rng.Uint64()%(1<<30))
				}
				return h, HeapOp(hp)
			},
		})
	}
	return runSweep(cfg, algos)
}

// --- Figure 4: volatile AtomicFloat ------------------------------------

func volPBComb(cfg Config, n int) (*pmem.Heap, OpFunc) {
	vcfg := cfg
	vcfg.Persist = pmem.Config{Mode: pmem.ModeVolatile, NoCost: cfg.Persist.NoCost, MissNs: cfg.Persist.MissNs}
	h := newHeap(vcfg)
	c := core.NewPBComb(h, "af", n, core.AtomicFloat{Initial: 1})
	c.SetProbe(cfg.probe())
	return h, func(tid int, i uint64, _ *rand.Rand) {
		c.Invoke(tid, core.OpAtomicFloatMul, kMul, 0, i+1)
	}
}

// missSetter is implemented by every volatile executor.
type missSetter interface{ SetMissCost(ns int) }

func volExec(mk func(n int) volatilecomb.Executor) func(cfg Config, n int) (*pmem.Heap, OpFunc) {
	return func(cfg Config, n int) (*pmem.Heap, OpFunc) {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeVolatile, NoCost: cfg.Persist.NoCost})
		ex := mk(n)
		if ms, ok := ex.(missSetter); ok && !cfg.Persist.NoCost {
			ns := cfg.Persist.MissNs
			if ns == 0 {
				ns = pmem.DefaultMissNs
			}
			ms.SetMissCost(ns)
		}
		return h, func(tid int, i uint64, _ *rand.Rand) { ex.Apply(tid, kMul) }
	}
}

func volState() []uint64 { return []uint64{math.Float64bits(1)} }

func fig4Algos() []Algo {
	return []Algo{
		{"PBcomb", volPBComb},
		{"H-Synch", volExec(func(n int) volatilecomb.Executor {
			return volatilecomb.NewHSynch(n, volState(), volatilecomb.AtomicFloatStep, 4)
		})},
		{"CC-Synch", volExec(func(n int) volatilecomb.Executor {
			return volatilecomb.NewCCSynch(n, volState(), volatilecomb.AtomicFloatStep, 0)
		})},
		{"PSim", volExec(func(n int) volatilecomb.Executor {
			return volatilecomb.NewPSim(n, volState(), volatilecomb.AtomicFloatStep)
		})},
		{"MCS", volExec(func(n int) volatilecomb.Executor {
			return volatilecomb.NewMCS(n, volState(), volatilecomb.AtomicFloatStep)
		})},
		{"lock-free", volExec(func(n int) volatilecomb.Executor {
			return volatilecomb.NewLockFree(math.Float64bits(1), volatilecomb.AtomicFloatStep)
		})},
		{"C-BO-MCS", volExec(func(n int) volatilecomb.Executor {
			return volatilecomb.NewCBOMCS(n, volState(), volatilecomb.AtomicFloatStep, 4, 64)
		})},
	}
}

// Fig4 is the volatile AtomicFloat comparison.
func Fig4(cfg Config) []Series { return runSweep(cfg, fig4Algos()) }

// --- Table 1: shared-memory counters -----------------------------------

// Table1Row is one algorithm's per-operation shared-access counters.
type Table1Row struct {
	Algorithm   string
	CacheMisses float64
	StateStores float64
	StateReads  float64
}

// Table1 reproduces the perf-counter table at the given thread count
// (128 in the paper) over the volatile AtomicFloat benchmark.
func Table1(n int, ops uint64) []Table1Row {
	var rows []Table1Row
	add := func(name string, t *memmodel.Tracker, h *pmem.Heap, op OpFunc) {
		res := Measure(name, h, n, ops, op)
		tot := t.Totals()
		rows = append(rows, Table1Row{
			Algorithm:   name,
			CacheMisses: float64(tot.Misses) / float64(res.Ops),
			StateStores: float64(tot.StateStores) / float64(res.Ops),
			StateReads:  float64(tot.StateReads) / float64(res.Ops),
		})
	}

	{
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeVolatile})
		c := core.NewPBComb(h, "af", n, core.AtomicFloat{Initial: 1})
		t := memmodel.New(n)
		c.SetProbe(core.Probe{Mem: t})
		add("PBcomb", t, h, func(tid int, i uint64, _ *rand.Rand) {
			c.Invoke(tid, core.OpAtomicFloatMul, kMul, 0, i+1)
		})
	}
	{
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeVolatile})
		ex := volatilecomb.NewHSynch(n, volState(), volatilecomb.AtomicFloatStep, 4)
		t := memmodel.New(n)
		ex.SetTracker(t)
		add("H-Synch", t, h, func(tid int, i uint64, _ *rand.Rand) { ex.Apply(tid, kMul) })
	}
	{
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeVolatile})
		ex := volatilecomb.NewCCSynch(n, volState(), volatilecomb.AtomicFloatStep, 0)
		t := memmodel.New(n)
		ex.SetTracker(t)
		add("CC-Synch", t, h, func(tid int, i uint64, _ *rand.Rand) { ex.Apply(tid, kMul) })
	}
	{
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeVolatile})
		ex := volatilecomb.NewPSim(n, volState(), volatilecomb.AtomicFloatStep)
		t := memmodel.New(n)
		ex.SetTracker(t)
		add("PSim", t, h, func(tid int, i uint64, _ *rand.Rand) { ex.Apply(tid, kMul) })
	}
	return rows
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "# Table 1: per-operation shared-memory counters\n")
	fmt.Fprintf(w, "%-28s %14s %14s %14s\n", "(per operation)", "cache-misses", "state-stores", "state-reads")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %14.4f %14.4f %14.4f\n", r.Algorithm, r.CacheMisses, r.StateStores, r.StateReads)
	}
	fmt.Fprintln(w)
}
