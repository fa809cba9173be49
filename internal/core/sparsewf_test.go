package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
	"pcomb/internal/prim"
)

func TestSparseWFMatchesDense(t *testing.T) {
	// Property: a random op sequence produces the sequential model's state
	// and returns under sparse and whole-record PWFcomb.
	f := func(ops []uint16) bool {
		h1, h2 := shadowHeap(), shadowHeap()
		a := NewPWFComb(h1, "a", 1, sparseArray{64})
		b := NewPWFComb(h2, "b", 1, dense{sparseArray{64}})
		return sameAsModel(t, a, b, ops)
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
		if tracked(c) != sparse {
			t.Fatalf("line-tracked = %v, want %v", tracked(c), sparse)
		}
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

// scanFillLines is the fill's copy set found by a scan of every record line:
// the lines the chain rewrote after base and those in the buffer's
// divergence set dirty. It is the reference the summary's descent is checked
// against.
func (c *PWFComb) scanFillLines(base uint64, dirty []bool) []bool {
	set := make([]bool, c.recWords/pmem.LineWords)
	for l := range set {
		set[l] = c.vers[0][l/groupWords][l%groupWords].Load() > base || dirty[l]
	}
	return set
}

// fillOracle watches every fill of a PWFComb driven by a fillSchedule. It is
// the instance's CombTracker: Copied fires right after a fill and before the
// validation that follows it, SCFail right after a discarded attempt.
type fillOracle struct {
	t     *testing.T
	s     *fillSchedule
	fills int
	// divergence[b] is private record b's divergence set as it stood before
	// its owner's next fill: taken after each of the owner's discarded
	// attempts and after each of its operations, the only points its owner
	// leaves the record between fills.
	divergence [][]bool
	lastMy     []int
	lostSCs    int
	lostVals   int
}

func (o *fillOracle) snapshot(tid int) {
	c := o.s.c
	for b := 2 * tid; b < 2*tid+2; b++ {
		o.divergence[b] = append(o.divergence[b][:0], c.bufDirty[b].mark...)
	}
}

func (o *fillOracle) Copied(tid, words int) {
	c := o.s.c
	// Nothing ran between the attempt's LL and here, so S still names the
	// record the fill read.
	slot, _ := prim.UnpackVersioned(c.sv.LL())
	src := c.recOff(slot)
	my := tid*2 + int(c.state.Load(src+c.idxOff+tid)&1)
	dst := c.recOff(my)
	o.lastMy[tid] = my
	o.fills++
	if c.bufStamp[my] == 0 {
		if words != c.recWords {
			o.t.Fatalf("fill %d: first fill of record %d copied %d words, want all %d", o.fills, my, words, c.recWords)
		}
	} else {
		want := c.scanFillLines(c.bufStamp[my]-1, o.divergence[my])
		pidLine := c.pidOff / pmem.LineWords
		n := 0
		for l, in := range want {
			if in {
				n++
			}
			// The fill leaves its copy set in bufDirty, plus the pid line the
			// caller is about to store.
			if got := c.bufDirty[my].has(l); got != (in || l == pidLine) {
				o.t.Fatalf("fill %d of record %d from version %d: line %d selected %v, full scan says %v", o.fills, my, c.bufStamp[my]-1, l, got, in)
			}
		}
		if words != n*pmem.LineWords {
			o.t.Fatalf("fill %d: copied %d words, full scan selects %d lines", o.fills, words, n)
		}
	}
	for w := 0; w < c.recWords; w++ {
		if got, want := c.state.Load(dst+w), c.state.Load(src+w); got != want {
			o.t.Fatalf("fill %d: record %d word %d = %d after the fill, S record %d holds %d", o.fills, my, w, got, slot, want)
		}
	}
	o.s.preempt(4)
}

func (o *fillOracle) SCFail(tid int) {
	// A lost SC comes after the pfence that empties unFenced; a failed
	// validation leaves at least the filled lines in it.
	if len(o.s.c.unFenced[o.lastMy[tid]].lines) == 0 {
		o.lostSCs++
	} else {
		o.lostVals++
	}
	o.snapshot(tid)
	o.s.preempt(4)
}

func (o *fillOracle) Round(int, int)     {}
func (o *fillOracle) Helped(int)         {}
func (o *fillOracle) LockFail(int)       {}
func (o *fillOracle) BatchSize(int, int) {}
func (o *fillOracle) ReadFallback(int)   {}

// fillSchedule interleaves the threads of one PWFComb on a single goroutine:
// at a hook inside one thread's attempt it runs another thread's whole
// operation, nested, so S moves under the interrupted attempt exactly there.
// The hooks are the oracle's (after a fill: the validation fails), preServe
// (the validation after serving fails) and the heap's kill hook, which fires
// at persistence events, the write-backs between that validation and the SC
// among them (the SC is lost). One goroutine makes every interleaving
// reproducible from the seed.
type fillSchedule struct {
	c      *PWFComb
	h      *pmem.Heap
	rng    *rand.Rand
	oracle *fillOracle
	words  int
	active []bool
	depth  int
	seq    []uint64
}

// op runs one operation of tid: a write to a word drawn from a hot eighth
// of the state or from all of it, or now and then a read.
func (s *fillSchedule) op(tid int) {
	s.active[tid] = true
	s.depth++
	s.seq[tid]++
	idx := uint64(s.rng.Intn(s.words))
	if s.rng.Intn(2) == 0 {
		idx %= uint64(s.words / 8)
	}
	op := OpRegWrite
	if s.rng.Intn(8) == 0 {
		op = OpRegRead
	}
	s.c.Invoke(tid, op, idx, s.rng.Uint64(), s.seq[tid])
	s.depth--
	s.active[tid] = false
	s.oracle.snapshot(tid)
}

// preempt, with probability 1/oneIn, runs an operation of a thread that is
// not already on the stack.
func (s *fillSchedule) preempt(oneIn int) {
	if s.depth >= 3 || s.rng.Intn(oneIn) != 0 {
		return
	}
	var idle []int
	for tid, a := range s.active {
		if !a {
			idle = append(idle, tid)
		}
	}
	if len(idle) > 0 {
		s.op(idle[s.rng.Intn(len(idle))])
	}
}

// armKill makes the heap's kill hook preempt at a random persistence event
// within the next few. The hook returns instead of killing, so the event it
// interrupted goes on once the nested operation is done.
func (s *fillSchedule) armKill() {
	s.h.SetKillAtEvent(1+s.rng.Int63n(12), func() {
		s.h.SetKillAtEvent(0, nil)
		s.preempt(2)
		s.armKill()
	})
}

// TestSparseWFFillMatchesScan checks the version summary against the full
// scan it replaced, at every fill of a 3-thread PWFComb on a record of 512
// state lines, under interleavings with lost SCs and failed validations: the
// lines a fill copies must be exactly {l : lineVer[l] > base} ∪ bufDirty,
// and after the fill the private record must equal the S record word for
// word.
func TestSparseWFFillMatchesScan(t *testing.T) {
	const n, words = 3, 512 * pmem.LineWords
	for seed := int64(1); seed <= 3; seed++ {
		h := shadowHeap()
		c := NewPWFComb(h, "a", n, sparseArray{words})
		s := &fillSchedule{c: c, h: h, rng: rand.New(rand.NewSource(seed)), words: words,
			active: make([]bool, n), seq: make([]uint64, n)}
		o := &fillOracle{t: t, s: s, divergence: make([][]bool, 2*n), lastMy: make([]int, n)}
		s.oracle = o
		for tid := 0; tid < n; tid++ {
			o.snapshot(tid)
		}
		c.SetProbe(Probe{Comb: o})
		c.preServe = func(*Env) { s.preempt(4) }
		s.armKill()
		for i := 0; i < 300; i++ {
			s.op(s.rng.Intn(n))
		}
		h.SetKillAtEvent(0, nil)
		t.Logf("seed %d: %d fills checked, %d lost SCs, %d failed validations", seed, o.fills, o.lostSCs, o.lostVals)
		if o.lostSCs == 0 || o.lostVals == 0 {
			t.Fatalf("seed %d: the schedule lost %d SCs and failed %d validations; want both", seed, o.lostSCs, o.lostVals)
		}
	}
}
