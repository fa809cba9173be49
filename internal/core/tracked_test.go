package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pcomb/internal/pmem"
)

// trackedProtos builds each protocol on h for n threads over obj.
var trackedProtos = []struct {
	name  string
	build func(h *pmem.Heap, n int, obj Object, o CombOpts) instance
}{
	{"PB", func(h *pmem.Heap, n int, obj Object, o CombOpts) instance { return NewPBCombWith(h, "tr", n, obj, o) }},
	{"PWF", func(h *pmem.Heap, n int, obj Object, o CombOpts) instance { return NewPWFCombWith(h, "tr", n, obj, o) }},
}

// TestTrackedRecordCounts: a record made wide by its per-thread tail writes
// back only the lines a round changed, whatever the object. A Counter, which
// marks none of its stores, driven by the last thread of an instance at
// VecCap 16 costs the same per Invoke at n = 4 and n = 16 (records of 9 and
// 35 lines): the state line, the thread's ReturnVal and Deactivate lines (under PWFcomb also its
// Index and pid line) and the index, not every thread's ReturnVal block. At
// VecCap 1 and n = 1 the record is one line and takes the whole-record copy
// and pwb: an Invoke costs what TestScalarInvokeCounts pins.
func TestTrackedRecordCounts(t *testing.T) {
	const warm, ops = 8, 64
	type cost struct{ pwbs, pfences, psyncs uint64 }
	want := map[string]map[int]cost{ // by protocol, then VecCap
		"PB":  {1: {2, 1, 1}, 16: {4, 1, 1}},
		"PWF": {1: {2, 1, 1}, 16: {5, 1, 1}},
	}
	for _, p := range trackedProtos {
		for _, c := range []struct{ n, k int }{{1, 1}, {4, 16}, {16, 16}} {
			t.Run(fmt.Sprintf("%s/n=%d/VecCap=%d", p.name, c.n, c.k), func(t *testing.T) {
				h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
				in := p.build(h, c.n, Counter{}, CombOpts{VecCap: c.k})
				if tracked(in) != (c.k > 1) {
					t.Fatalf("line-tracked = %v on a record of n = %d, VecCap = %d", tracked(in), c.n, c.k)
				}
				tid, seq := c.n-1, uint64(0)
				for ; seq < warm; seq++ {
					in.Invoke(tid, OpCounterAdd, 1, 0, seq+1)
				}
				s0 := h.Stats()
				for ; seq < warm+ops; seq++ {
					in.Invoke(tid, OpCounterAdd, 1, 0, seq+1)
				}
				s1 := h.Stats()
				got := cost{(s1.Pwbs - s0.Pwbs) / ops, (s1.Pfences - s0.Pfences) / ops, (s1.Psyncs - s0.Psyncs) / ops}
				if s1.Pwbs-s0.Pwbs != got.pwbs*ops {
					t.Fatalf("the %d Invokes did not cost the same each", ops)
				}
				if got != want[p.name][c.k] {
					t.Fatalf("an Invoke costs %+v, want %+v", got, want[p.name][c.k])
				}
			})
		}
	}
}

// tracked reports whether in copies and persists its records line by line.
func tracked(in instance) bool {
	switch c := in.(type) {
	case *PBComb:
		return c.sparse
	case *PWFComb:
		return c.sparse
	}
	return false
}

// TestTrackedRecordRule: the layout picks the path. A record is line-tracked
// when it is wider than one line and its object marks its own stores or its
// per-thread tail makes up most of it; a one-line record, and a wide one that
// is mostly state serve marks whole every round (a heap's key array), keep the
// whole-record copy and pwb.
func TestTrackedRecordRule(t *testing.T) {
	cases := []struct {
		what string
		n    int
		obj  Object
		k    int
		want bool
	}{
		{"one-line Counter", 1, Counter{}, 1, false},
		{"one-line SparseObject", 1, markedCounter{}, 1, false},
		{"Counter wide by its ReturnVal blocks", 4, Counter{}, 16, true},
		{"three state lines, tail of five or more", 8, stripes{}, 4, true},
		{"wide SparseObject", 1, sparseArray{64}, 1, true},
		{"eight unmarked state lines, one thread", 1, dense{sparseArray{64}}, 1, false},
		{"eight unmarked state lines, eight threads", 8, dense{sparseArray{64}}, 1, false},
	}
	for _, p := range trackedProtos {
		for _, c := range cases {
			in := p.build(pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true}), c.n, c.obj, CombOpts{VecCap: c.k})
			if got := tracked(in); got != c.want {
				t.Errorf("%s, %s (n = %d, VecCap = %d): line-tracked = %v, want %v", p.name, c.what, c.n, c.k, got, c.want)
			}
		}
	}
}

const opStripe uint64 = 1

// stripes is a three-line object that marks none of its stores, so a tracked
// record relies on serve marking its whole state: word q+8j belongs to thread
// q (q < 8), and op (A0 = v, A1 = j) stores v there and returns the old word.
type stripes struct{}

func (stripes) StateWords() int { return 3 * pmem.LineWords }

func (stripes) Init(s State) {
	for i := 0; i < s.Words(); i++ {
		s.Store(i, 0)
	}
}

func (stripes) Apply(env *Env, r *Request) {
	i := int(r.Tid) + pmem.LineWords*int(r.A1)
	r.Ret = env.State.Load(i)
	env.State.Store(i, r.A0)
}

// TestTrackedRecordCrash: eight threads run stripes ops on a tracked record
// (three state lines and, at VecCap 4, a tail of five lines or more), and the
// heap crashes at a seeded persistence event under each crash policy. Thread q's op s writes s into
// word q+8·(s%3), so it must return s-3 (0 for s ≤ 3) whether a round or
// recovery answers it. After the reopen each thread recovers the op it was
// in, and every word must hold its thread's last write: an acknowledged op
// whose state line a round did not copy or write back shows as a stale word
// or a wrong response.
func TestTrackedRecordCrash(t *testing.T) {
	const n, per, seeds = 8, 40, 16
	policies := []pmem.CrashPolicy{pmem.DropUnfenced, pmem.ApplyAll, pmem.RandomCut, pmem.TornLine}
	want := func(s uint64) uint64 {
		if s <= 3 {
			return 0
		}
		return s - 3
	}
	// VecCap 4 makes the per-thread tail most of the record, which puts a
	// record of an object that marks none of its stores on the tracked path.
	opts := CombOpts{VecCap: 4}
	for _, p := range trackedProtos {
		t.Run(p.name, func(t *testing.T) {
			midOp := 0 // seeds whose crash caught a thread inside an op
			for seed := int64(1); seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				h := shadowHeap()
				in := p.build(h, n, stripes{}, opts)
				if !tracked(in) {
					t.Fatal("the record is not line-tracked")
				}
				h.SetCrashAtEvent(1 + rng.Int63n(n*per)) // a run without a crash has about 400
				last := make([]uint64, n)                // each thread's last op, acknowledged or not
				acked := make([]uint64, n)               // each thread's last acknowledged op
				var wg sync.WaitGroup
				for tid := 0; tid < n; tid++ {
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
						for s := uint64(1); s <= per; s++ {
							last[tid] = s
							if got := in.Invoke(tid, opStripe, s, s%3, s); got != want(s) {
								t.Errorf("seed %d: tid %d op %d returned %d, want %d", seed, tid, s, got, want(s))
							}
							acked[tid] = s
						}
					}(tid)
				}
				wg.Wait()
				h.TriggerCrash()
				h.FinishCrash(policies[seed%int64(len(policies))], seed)
				in = p.build(h, n, stripes{}, opts)
				for tid, s := range last {
					if s != acked[tid] {
						midOp++
						if got := in.Recover(tid, opStripe, s, s%3, s); got != want(s) {
							t.Fatalf("seed %d: tid %d recovered op %d returned %d, want %d", seed, tid, s, got, want(s))
						}
					}
				}
				st := in.CurrentState()
				for tid, s := range last {
					for j := uint64(0); j < 3; j++ {
						w := uint64(0) // the thread's last op s' ≤ s with s'%3 == j, if any
						if s >= j {
							w = s - (s-j)%3
						}
						if got := st.Load(tid + pmem.LineWords*int(j)); got != w {
							t.Fatalf("seed %d: tid %d word of line %d = %d, want %d (acknowledged through op %d)", seed, tid, j, got, w, acked[tid])
						}
					}
				}
			}
			t.Logf("%d threads over %d seeds were inside an op at the crash", midOp, seeds)
			if midOp == 0 {
				t.Fatal("no crash landed inside an op")
			}
		})
	}
}
