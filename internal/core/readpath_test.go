package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pcomb/internal/history"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// cells is the read-path tests' object: words that take put (returns the
// previous value), add (returns the new one) and get, the last through Read.
// hook, when set, runs inside every Read — a writer that lands mid-probe.
type cells struct {
	n    int
	hook *func()
}

const (
	opCellPut uint64 = iota + 1
	opCellAdd
	opCellGet
)

// sparseCells is cells as a SparseObject: cells marks every store.
type sparseCells struct{ cells }

func (sparseCells) MarksDirty() {}

func (c cells) StateWords() int { return c.n }

func (c cells) Init(s State) {
	for i := 0; i < c.n; i++ {
		s.Store(i, 0)
	}
}

func (c cells) Apply(env *Env, r *Request) {
	s, i := env.State, int(r.A0%uint64(c.n))
	switch r.Op {
	case opCellPut:
		r.Ret = s.Load(i)
		s.Store(i, r.A1)
		env.MarkDirty(i, 1)
	case opCellAdd:
		r.Ret = s.Load(i) + r.A1
		s.Store(i, r.Ret)
		env.MarkDirty(i, 1)
	default:
		r.Ret = c.Read(s, r.Op, r.A0, r.A1)
	}
}

func (c cells) Read(s State, op, a0, _ uint64) uint64 {
	if c.hook != nil && *c.hook != nil {
		(*c.hook)()
	}
	if op == opCellGet {
		return s.Load(int(a0 % uint64(c.n)))
	}
	return ^uint64(0)
}

func combOf(p Protocol) *comb {
	switch v := p.(type) {
	case *PBComb:
		return &v.comb
	case *PWFComb:
		return &v.comb
	}
	panic("not a combining instance")
}

var readKinds = []struct {
	name string
	mk   func(h *pmem.Heap, n int, obj Object) Protocol
}{
	{"PBcomb", func(h *pmem.Heap, n int, obj Object) Protocol { return NewPBComb(h, "c", n, obj) }},
	{"PWFcomb", func(h *pmem.Heap, n int, obj Object) Protocol { return NewPWFComb(h, "c", n, obj) }},
	{"PBcomb-sparse", func(h *pmem.Heap, n int, obj Object) Protocol { return NewPBComb(h, "c", n, sparseCells{obj.(cells)}) }},
	{"PWFcomb-sparse", func(h *pmem.Heap, n int, obj Object) Protocol { return NewPWFComb(h, "c", n, sparseCells{obj.(cells)}) }},
}

// crashed runs f and reports whether a simulated crash unwound it.
func crashed(f func()) (hit bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.CrashError); !ok {
				panic(r)
			}
			hit = true
		}
	}()
	f()
	return false
}

// The litmus the durable index exists for. Cell k holds 0; thread A announces
// add(k, 1), thread B put(k, 10), and B's round serves B then A (k = 11). The
// crash lands between the store of the persistent index and its psync, with a
// reader's get(k) taken in that gap; recovery then re-runs A before B, so A's
// add returns 1, B's put returns 1 and k ends at 10. A reader that followed
// the persistent index — or a durable index published before the psync, the
// sabotage — returned 11, which no order of the two updates with those
// responses produces: the checker must reject that history and accept the one
// where the reader saw 0.
func TestReadPathLitmus(t *testing.T) {
	const B, A, R, k = 0, 1, 2, 0
	round := func(c Protocol) {
		cb := combOf(c)
		cb.storeEnt(A, 0, opCellAdd, k, 1, A, 1)
		cb.announce(A, 1, 1)
		c.Invoke(B, opCellPut, k, 10, 1)
	}
	for _, kind := range readKinds[:2] {
		for _, sabotage := range []bool{false, true} {
			name := kind.name + "/clean"
			if sabotage {
				name = kind.name + "/publish-before-psync"
			}
			t.Run(name, func(t *testing.T) {
				// The psync is the round's last persistence event: count them
				// on a heap of its own.
				dry := kind.mk(shadowHeap(), 3, cells{n: 1})
				booted := dry.Ctx(B).Instr()
				round(dry)
				psync := dry.Ctx(B).Instr() - booted

				SetPublishSabotage(sabotage)
				defer SetPublishSabotage(false)
				h := shadowHeap()
				c := kind.mk(h, 3, cells{n: 1})
				rec := history.New(3)
				rec.Begin(A, lin.KindMapAdd, k, 1)
				rec.Begin(B, lin.KindPut, k, 10)
				c.Ctx(B).SetCrashAt(psync)
				if !crashed(func() { round(c) }) {
					t.Fatal("the round finished: the crash point is not its psync")
				}
				if got := c.CurrentState().Load(k); got != 11 {
					t.Fatalf("the persistent index selects k = %d, want 11: the round did not serve B then A", got)
				}
				rec.Begin(R, lin.KindGet, k, 0)
				seen, ok := c.Read(R, opCellGet, k, 0)
				if !ok {
					t.Fatal("an undisturbed read did not validate")
				}
				rec.End(R, seen)

				h.Crash(pmem.DropUnfenced, 1)
				c = kind.mk(h, 3, cells{n: 1})
				rec.Cut(0)
				if ra := c.Recover(A, opCellAdd, k, 1, 1); !rec.Resolve(A, ra) || ra != 1 {
					t.Fatalf("Recover(A) = %d, want 1", ra)
				}
				if rb := c.Recover(B, opCellPut, k, 10, 1); !rec.Resolve(B, rb) || rb != 1 {
					t.Fatalf("Recover(B) = %d, want 1", rb)
				}
				final, _ := c.Read(R, opCellGet, k, 0)
				if final != 10 {
					t.Fatalf("k = %d after recovery, want 10", final)
				}
				ops := lin.AppendAudits(rec.Ops(), lin.Op{Kind: lin.KindGet, Arg: k, Out: final})
				res := lin.CheckDurable(lin.MapKeyModel{Initial: 0}, ops, lin.Opts{})
				switch {
				case !sabotage && (seen != 0 || res.Outcome != lin.Ok):
					t.Fatalf("reader saw %d (want 0), checker says %v: %s", seen, res.Outcome, res.Diag)
				case sabotage && (seen != 11 || res.Outcome != lin.Violation):
					t.Fatalf("sabotaged reader saw %d (want 11), checker says %v: the mutation went uncaught", seen, res.Outcome)
				}
			})
		}
	}
}

// One cell counts up under concurrent adds. A reader's successive reads never
// go backwards; a thread's read after its own add returned v is at least v;
// and a read started after any thread's add returned v is at least v.
func TestReadPathConcurrent(t *testing.T) {
	const writers, readers, per = 2, 2, 400
	for _, kind := range readKinds {
		t.Run(kind.name, func(t *testing.T) {
			c := kind.mk(shadowHeap(), writers+readers, cells{n: 4})
			read := func(tid int) uint64 {
				for {
					if v, ok := c.Read(tid, opCellGet, 0, 0); ok {
						return v
					}
				}
			}
			var acked atomic.Uint64 // the largest value an add has returned
			var done atomic.Int32
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					defer done.Add(1)
					for seq := uint64(1); seq <= per; seq++ {
						v := c.Invoke(tid, opCellAdd, 0, 1, seq)
						if got := read(tid); got < v {
							t.Errorf("thread %d read %d after its own add returned %d", tid, got, v)
							return
						}
						for old := acked.Load(); old < v && !acked.CompareAndSwap(old, v); old = acked.Load() {
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					var last uint64
					for done.Load() < writers {
						floor := acked.Load()
						v := read(tid)
						if v < floor {
							t.Errorf("read %d started after an add had returned %d", v, floor)
							return
						}
						if v < last {
							t.Errorf("successive reads went backwards: %d then %d", last, v)
							return
						}
						last = v
						runtime.Gosched() // four goroutines on what may be one core
					}
				}(writers + r)
			}
			wg.Wait()
			if got := read(0); got != writers*per {
				t.Fatalf("cell = %d, want %d", got, writers*per)
			}
		})
	}
}

// A writer that completes a round inside every probe: Read gives up after
// readTries validations and says so, having returned nothing torn, and the
// announced fallback answers. The probe counts the fallback exactly once. The
// miss bookkeeping is checked on the way: a thread that published holds the
// index line, any other reader is behind it.
func TestReadPathBoundedRetry(t *testing.T) {
	const R, W = 0, 1
	for _, kind := range readKinds {
		t.Run(kind.name, func(t *testing.T) {
			var hook func()
			c := kind.mk(shadowHeap(), 2, cells{n: 2, hook: &hook})
			cb := combOf(c)
			stats := obs.NewCombStats(2)
			c.SetProbe(Probe{Comb: stats})
			probes, seq := 0, uint64(0)
			var storm func()
			storm = func() {
				probes++
				seq++
				hook = nil // the writer's own round must not recurse
				c.Invoke(W, opCellAdd, 1, 1, seq)
				hook = storm
			}
			hook = storm
			if v, ok := c.Read(R, opCellGet, 1, 0); ok {
				t.Fatalf("Read validated (%d) although every probe saw a round land", v)
			}
			hook = nil
			if probes != readTries {
				t.Fatalf("Read probed %d times, want %d", probes, readTries)
			}
			if n := stats.Snapshot().ReadFallbacks; n != 1 {
				t.Fatalf("%d read fallbacks counted, want 1", n)
			}
			if d := cb.dur.V.Load(); cb.seen[W].V.Load() != d || cb.seen[R].V.Load() == d {
				t.Fatalf("durable index %#x: publisher saw %#x, reader %#x", d, cb.seen[W].V.Load(), cb.seen[R].V.Load())
			}
			if got := c.Invoke(R, opCellGet, 1, 0, 1); got != readTries {
				t.Fatalf("announced fallback read %d, want %d", got, readTries)
			}
			if v, ok := c.Read(R, opCellGet, 1, 0); !ok || v != readTries {
				t.Fatalf("quiet Read = %d, %v", v, ok)
			}
			if n := stats.Snapshot().ReadFallbacks; n != 1 {
				t.Fatalf("a validated read moved the fallback count to %d", n)
			}
			if cb.seen[R].V.Load() != cb.dur.V.Load() {
				t.Fatal("a validated read left the reader behind the index it read")
			}
		})
	}
}

// After a crash the durable index is re-seeded from the persistent one, whose
// volatile copy is then exactly its durable value: the first read returns the
// recovered state, including an update the crash caught before its psync and
// recovery completed.
func TestReadPathReopen(t *testing.T) {
	for _, kind := range readKinds {
		t.Run(kind.name, func(t *testing.T) {
			h := shadowHeap()
			c := kind.mk(h, 1, cells{n: 2})
			for seq := uint64(1); seq <= 5; seq++ {
				c.Invoke(0, opCellAdd, 1, 2, seq)
			}
			c.Ctx(0).SetCrashAt(1)
			if !crashed(func() { c.Invoke(0, opCellAdd, 1, 2, 6) }) {
				t.Fatal("no crash")
			}
			h.Crash(pmem.DropUnfenced, 1)
			c = kind.mk(h, 1, cells{n: 2})
			if cb := combOf(c); cb.dur.V.Load() != cb.idx.Load(0) {
				t.Fatalf("durable index %#x, persistent index %#x", cb.dur.V.Load(), cb.idx.Load(0))
			}
			if v, ok := c.Read(0, opCellGet, 1, 0); !ok || v != 10 {
				t.Fatalf("first read after re-open = %d, %v; want 10", v, ok)
			}
			if got := c.Recover(0, opCellAdd, 1, 2, 6); got != 12 {
				t.Fatalf("Recover = %d, want 12", got)
			}
			if v, ok := c.Read(0, opCellGet, 1, 0); !ok || v != 12 {
				t.Fatalf("read after recovery = %d, %v; want 12", v, ok)
			}
		})
	}
}
