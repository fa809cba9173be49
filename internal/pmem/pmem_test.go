package pmem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newShadowHeap() *Heap {
	return NewHeap(Config{Mode: ModeShadow, NoCost: true})
}

func TestAllocAndLookup(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 16)
	if r.Len() != 16 {
		t.Fatalf("Len = %d, want 16", r.Len())
	}
	if h.Region("a") != r {
		t.Fatal("Region lookup failed")
	}
	if h.Region("missing") != nil {
		t.Fatal("missing region should be nil")
	}
	if got := h.AllocOrGet("a", 16); got != r {
		t.Fatal("AllocOrGet should return existing region")
	}
}

func TestAllocDuplicatePanics(t *testing.T) {
	h := newShadowHeap()
	h.Alloc("a", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate Alloc")
		}
	}()
	h.Alloc("a", 8)
}

func TestAllocOrGetSizeMismatchPanics(t *testing.T) {
	h := newShadowHeap()
	h.Alloc("a", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	h.AllocOrGet("a", 16)
}

func TestLoadStoreCAS(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 4)
	r.Store(2, 99)
	if r.Load(2) != 99 {
		t.Fatal("Load after Store")
	}
	if !r.CAS(2, 99, 100) || r.Load(2) != 100 {
		t.Fatal("CAS success path")
	}
	if r.CAS(2, 99, 101) {
		t.Fatal("CAS should fail on stale old value")
	}
	if r.Add(2, 5) != 105 {
		t.Fatal("Add")
	}
}

func TestUnflushedDataIsLostOnCrash(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 8)
	r.Store(0, 42)
	h.Crash(DropUnfenced, 1)
	if got := r.Load(0); got != 0 {
		t.Fatalf("unflushed word survived crash: %d", got)
	}
}

func TestPwbWithoutSyncIsLostUnderDropUnfenced(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	r.Store(0, 42)
	c.PWB(r, 0, 1)
	h.Crash(DropUnfenced, 1)
	if got := r.Load(0); got != 0 {
		t.Fatalf("pwb-without-psync survived under DropUnfenced: %d", got)
	}
}

func TestPwbSyncDurable(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	r.Store(0, 42)
	c.PWB(r, 0, 1)
	c.PSync()
	r.Store(0, 7) // volatile overwrite after the sync
	h.Crash(DropUnfenced, 1)
	if got := r.Load(0); got != 42 {
		t.Fatalf("psynced value lost: got %d want 42", got)
	}
}

func TestPwbCapturesContentAtIssueTime(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	r.Store(0, 1)
	c.PWB(r, 0, 1)
	r.Store(0, 2) // after the pwb; not covered by it
	c.PSync()
	h.Crash(DropUnfenced, 1)
	if got := r.Load(0); got != 1 {
		t.Fatalf("write-back should carry issue-time contents: got %d want 1", got)
	}
}

func TestApplyAllPersistsPending(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	r.Store(3, 9)
	c.PWB(r, 3, 1)
	h.Crash(ApplyAll, 1)
	if got := r.Load(3); got != 9 {
		t.Fatalf("ApplyAll should persist pending write-backs: %d", got)
	}
}

func TestFenceMakesPrecedingPwbsDurable(t *testing.T) {
	// pwb A; pfence; pwb B; crash. A must always survive (the fence drained
	// it, as CLWB+SFENCE on an ADR platform does); B is at the adversary's
	// mercy.
	sawBLost, sawBKept := false, false
	for seed := int64(0); seed < 64; seed++ {
		h := newShadowHeap()
		r := h.Alloc("a", 2*LineWords)
		c := h.NewCtx()
		r.Store(0, 1)
		c.PWB(r, 0, 1)
		c.PFence()
		r.Store(LineWords, 2)
		c.PWB(r, LineWords, 1)
		h.Crash(RandomCut, seed)
		if r.Load(0) != 1 {
			t.Fatalf("seed %d: fenced write-back lost", seed)
		}
		if r.Load(LineWords) == 2 {
			sawBKept = true
		} else {
			sawBLost = true
		}
	}
	if !sawBLost || !sawBKept {
		t.Fatalf("RandomCut not exercising both outcomes (lost=%v kept=%v)", sawBLost, sawBKept)
	}
}

func TestSameLineProgramOrderPreserved(t *testing.T) {
	// Two pwbs of the same word in the same epoch: the surviving value must
	// be either the old one, the first, or the second — never an out-of-order
	// resurrection of the first after the second became durable elsewhere.
	for seed := int64(0); seed < 100; seed++ {
		h := newShadowHeap()
		r := h.Alloc("a", LineWords)
		c := h.NewCtx()
		r.Store(0, 1)
		c.PWB(r, 0, 1)
		r.Store(0, 2)
		c.PWB(r, 0, 1)
		h.Crash(RandomCut, seed)
		if v := r.Load(0); v != 0 && v != 1 && v != 2 {
			t.Fatalf("seed %d: impossible survivor %d", seed, v)
		}
	}
}

// TestSameLineOrderAcrossContexts: two threads write back the same line, the
// one that issued its pwb first fences last. The durable line must hold the
// newer image — same-address write-backs are ordered, a line never goes back
// in time — whether the older capture arrives at a fence or is a pending
// tail the crash adversary chooses to apply.
func TestSameLineOrderAcrossContexts(t *testing.T) {
	for _, lateArrival := range []string{"fence", "crash-tail"} {
		h := newShadowHeap()
		r := h.Alloc("a", LineWords)
		a, b := h.NewCtx(), h.NewCtx()
		r.Store(0, 1)
		a.PWB(r, 0, 1) // captures 1
		r.Store(0, 2)
		b.PWB(r, 0, 1) // captures 2
		b.PSync()
		if lateArrival == "fence" {
			a.PSync()
			h.Crash(DropUnfenced, 1)
		} else {
			h.Crash(ApplyAll, 1)
		}
		if got := r.Load(0); got != 2 {
			t.Fatalf("%s: durable line went back in time: got %d want 2", lateArrival, got)
		}
	}
}

// checkPersistAllocFree is the allocation gate on the persistence
// instructions: a multi-line PWB, a PFence, a single-line PWB and a PSync on
// a capturing heap must allocate nothing once the context's pending queue
// has grown to its working size, and must still persist what they promised.
func checkPersistAllocFree(t *testing.T, h *Heap) {
	t.Helper()
	r := h.AllocOrGet("allocgate", 4*LineWords+3) // short last line
	c := h.NewCtx()
	v := uint64(0)
	round := func() {
		v++
		r.Store(0, v)
		r.Store(r.Len()-1, v)
		c.PWB(r, 0, r.Len())
		c.PFence()
		r.Store(LineWords, v)
		c.PWBLine(r, LineWords)
		c.PSync()
	}
	round() // warm-up: pending grows, the lines' seq chunk is created
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("PWB+PFence+PSync allocate %.1f times per round, want 0", n)
	}
	for _, i := range []int{0, LineWords, r.Len() - 1} {
		if got := r.ShadowLoad(i); got != v {
			t.Fatalf("word %d durable as %d after the last psync, want %d", i, got, v)
		}
	}
}

func TestShadowPersistAllocFree(t *testing.T) { checkPersistAllocFree(t, newShadowHeap()) }

func TestCountersAndStats(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount, NoCost: true})
	r := h.Alloc("a", 64)
	c := h.NewCtx()
	c.PWB(r, 0, 1)           // 1 line
	c.PWB(r, 0, LineWords+1) // 2 lines
	c.PFence()
	c.PSync()
	if c.Pwbs() != 3 {
		t.Fatalf("Pwbs = %d, want 3 (line-granular)", c.Pwbs())
	}
	if c.Pfences() != 1 || c.Psyncs() != 1 {
		t.Fatalf("fences/syncs = %d/%d", c.Pfences(), c.Psyncs())
	}
	s := h.Stats()
	if s.Pwbs != 3 || s.Pfences != 1 || s.Psyncs != 1 {
		t.Fatalf("Stats = %+v", s)
	}
	h.ResetStats()
	if s := h.Stats(); s.Pwbs != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

func TestVolatileModeNoops(t *testing.T) {
	h := NewHeap(Config{Mode: ModeVolatile})
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	c.PWB(r, 0, 1)
	c.PFence()
	c.PSync()
	c.CrashPoint()
	if s := h.Stats(); s.Pwbs != 0 || s.Pfences != 0 || s.Psyncs != 0 {
		t.Fatalf("volatile mode counted instructions: %+v", s)
	}
}

func TestPwbOffStillCounts(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount, PwbOff: true, NoCost: true})
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	c.PWB(r, 0, 1)
	if c.Pwbs() != 1 {
		t.Fatal("PwbOff should still count")
	}
}

func TestCrashInjection(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	c.SetCrashAt(2)
	c.PWB(r, 0, 1) // event 1: executes
	crashed := false
	func() {
		defer func() {
			if _, ok := recover().(CrashError); ok {
				crashed = true
			}
		}()
		c.PSync() // event 2: crashes before executing
	}()
	if !crashed {
		t.Fatal("expected CrashError at event 2")
	}
	if c.Psyncs() != 0 {
		t.Fatal("crashed psync must not execute")
	}
}

func TestTriggerCrashStopsAllCtxs(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	h.TriggerCrash()
	if !h.Crashed() {
		t.Fatal("Crashed() should be true")
	}
	func() {
		defer func() {
			if _, ok := recover().(CrashError); !ok {
				t.Error("expected CrashError after TriggerCrash")
			}
		}()
		c.PWB(r, 0, 1)
	}()
	h.FinishCrash(DropUnfenced, 1)
	if h.Crashed() {
		t.Fatal("FinishCrash should clear the crashed flag")
	}
	c.PWB(r, 0, 1) // must not panic anymore
}

func TestRegionSurvivesReopen(t *testing.T) {
	h := newShadowHeap()
	r := h.Alloc("state", 8)
	c := h.NewCtx()
	r.Store(0, 77)
	c.PWB(r, 0, 1)
	c.PSync()
	h.Crash(DropUnfenced, 1)
	r2 := h.AllocOrGet("state", 8)
	if r2.Load(0) != 77 {
		t.Fatal("reopened region lost durable data")
	}
}

func TestSnapshotAndCopyWords(t *testing.T) {
	h := newShadowHeap()
	a := h.Alloc("a", 8)
	b := h.Alloc("b", 8)
	for i := 0; i < 8; i++ {
		a.Store(i, uint64(i*i))
	}
	b.CopyWords(0, a, 0, 8)
	buf := make([]uint64, 8)
	b.Snapshot(buf, 0, 8)
	for i := 0; i < 8; i++ {
		if buf[i] != uint64(i*i) {
			t.Fatalf("word %d = %d", i, buf[i])
		}
	}
}

func TestQuickDurabilityPrefix(t *testing.T) {
	// Property: for a random sequence of (store, pwb, pfence, psync) events on
	// one word, the durable value after a DropUnfenced crash is the last value
	// covered by a fence/sync-drained pwb (or 0).
	f := func(ops []uint8) bool {
		h := newShadowHeap()
		r := h.Alloc("a", LineWords)
		c := h.NewCtx()
		var cur, lastSynced uint64
		var pendingVals []uint64 // values captured by pwbs since last psync
		v := uint64(0)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				v++
				cur = v
				r.Store(0, cur)
			case 1:
				c.PWB(r, 0, 1)
				pendingVals = append(pendingVals, cur)
			case 2, 3:
				if op%4 == 2 {
					c.PFence()
				} else {
					c.PSync()
				}
				if len(pendingVals) > 0 {
					lastSynced = pendingVals[len(pendingVals)-1]
					pendingVals = nil
				}
			}
		}
		h.Crash(DropUnfenced, 1)
		return r.Load(0) == lastSynced
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestCostCalibration(t *testing.T) {
	if costForNs(0) != 0 {
		t.Fatal("zero ns should cost zero")
	}
	if costForNs(100) == 0 {
		t.Fatal("positive ns should cost at least one iteration")
	}
	if costForNs(1000) < costForNs(10) {
		t.Fatal("cost should grow with latency")
	}
}

func TestModeString(t *testing.T) {
	if ModeCount.String() != "count" || ModeShadow.String() != "shadow" || ModeVolatile.String() != "volatile" {
		t.Fatal("Mode.String")
	}
	if DropUnfenced.String() == "" || ApplyAll.String() == "" || RandomCut.String() == "" {
		t.Fatal("CrashPolicy.String")
	}
}
