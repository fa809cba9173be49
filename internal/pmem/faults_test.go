package pmem

import (
	"errors"
	"testing"
)

func shadowHeap() *Heap {
	return NewHeap(Config{Mode: ModeShadow, NoCost: true})
}

func TestGlobalCrashSchedule(t *testing.T) {
	h := shadowHeap()
	r := h.Alloc("a", 64)
	c1, c2 := h.NewCtx(), h.NewCtx()

	// Two fenced write-backs, alternating contexts: 4 events total.
	h.SetCrashAtEvent(3)
	r.Store(0, 1)
	c1.PWB(r, 0, 1) // event 1
	c1.PFence()     // event 2
	r.Store(8, 2)
	crashed := func() (v bool) {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(CrashError); !ok {
					panic(rec)
				}
				v = true
			}
		}()
		c2.PWB(r, 8, 1) // event 3: crash fires here
		return false
	}()
	if !crashed {
		t.Fatal("global crash schedule did not fire at event 3")
	}
	if !h.Crashed() {
		t.Fatal("global crash must mark the heap crashed for other threads")
	}
	// The other context's next event must also unwind.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second context survived a crashed heap")
			}
		}()
		c1.PFence()
	}()
	h.FinishCrash(DropUnfenced, 1)
	if got := r.Load(0); got != 1 {
		t.Fatalf("fenced word lost: %d", got)
	}
	if got := r.Load(8); got != 0 {
		t.Fatalf("unfenced word survived DropUnfenced: %d", got)
	}
	// FinishCrash disarms the schedule.
	c1.PWB(r, 0, 1)
	c1.PFence()
}

func TestGlobalEventsCount(t *testing.T) {
	h := shadowHeap()
	r := h.Alloc("a", 8)
	c := h.NewCtx()
	base := h.GlobalEvents()
	r.Store(0, 1)
	c.PWB(r, 0, 1)
	c.PFence()
	c.PSync()
	c.CrashPoint()
	if d := h.GlobalEvents() - base; d != 4 {
		t.Fatalf("global events delta = %d, want 4", d)
	}
}

func TestTornLinePersistsPartialLines(t *testing.T) {
	// A line pending at the crash may persist any word subset under
	// TornLine; over many seeds we must observe at least one genuinely
	// partial outcome (some words of a line durable, others not).
	sawPartial := false
	for seed := int64(1); seed <= 64 && !sawPartial; seed++ {
		h := shadowHeap()
		r := h.Alloc("a", LineWords)
		c := h.NewCtx()
		for i := 0; i < LineWords; i++ {
			r.Store(i, uint64(i)+1)
		}
		c.PWB(r, 0, LineWords) // pending, never fenced
		h.Crash(TornLine, seed)
		persisted := 0
		for i := 0; i < LineWords; i++ {
			if r.Load(i) != 0 {
				persisted++
			}
		}
		if persisted > 0 && persisted < LineWords {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("TornLine never produced a partial line in 64 seeds")
	}
}

func TestTornLineNeverTouchesFencedData(t *testing.T) {
	h := shadowHeap()
	r := h.Alloc("a", LineWords)
	c := h.NewCtx()
	for i := 0; i < LineWords; i++ {
		r.Store(i, 7)
	}
	c.PWB(r, 0, LineWords)
	c.PSync() // durable
	for i := 0; i < LineWords; i++ {
		r.Store(i, 9)
	}
	c.PWB(r, 0, LineWords) // pending
	h.Crash(TornLine, 3)
	for i := 0; i < LineWords; i++ {
		if v := r.Load(i); v != 7 && v != 9 {
			t.Fatalf("word %d = %d; torn write-back invented a value", i, v)
		}
	}
}

func TestCatalogDetectsCorruption(t *testing.T) {
	// Single region, so every live catalog word is either the committed
	// header slot or the entry OpenChecked("x") must validate.
	h := shadowHeap()
	h.Alloc("x", 32)
	if err := h.VerifyCatalog(); err != nil {
		t.Fatalf("clean catalog rejected: %v", err)
	}
	flips := h.CorruptCatalog(42, 2)
	if len(flips) != 2 {
		t.Fatalf("wanted 2 flips, got %d", len(flips))
	}
	err := h.VerifyCatalog()
	if !errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("corrupted catalog verified: %v", err)
	}
	if _, err := h.OpenChecked("x", 32); !errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("OpenChecked served a region from a corrupt catalog: %v", err)
	}
	h.XorFlips(flips) // revert
	if err := h.VerifyCatalog(); err != nil {
		t.Fatalf("reverted catalog still rejected: %v", err)
	}
	if _, err := h.OpenChecked("x", 32); err != nil {
		t.Fatalf("reopen after revert: %v", err)
	}
}

func TestCatalogCorruptionSurvivesCrash(t *testing.T) {
	h := shadowHeap()
	h.Alloc("x", 32)
	h.CorruptCatalog(7, 1)
	h.Crash(DropUnfenced, 1) // the catalog is system-persisted: a crash keeps it
	if err := h.VerifyCatalog(); !errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("corruption did not survive the crash: %v", err)
	}
}

func TestOpenCheckedSizeMismatch(t *testing.T) {
	h := shadowHeap()
	h.Alloc("x", 32)
	if _, err := h.OpenChecked("x", 64); err == nil {
		t.Fatal("size mismatch not reported")
	} else if errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("size mismatch misreported as corruption: %v", err)
	}
}

func TestCrashOutcomeAccounting(t *testing.T) {
	h := shadowHeap()
	r := h.Alloc("a", 4*LineWords)
	c := h.NewCtx()
	for i := 0; i < 4*LineWords; i++ {
		r.Store(i, 1)
	}
	c.PWB(r, 0, 4*LineWords) // 4 pending lines
	out := h.Crash(ApplyAll, 1)
	if out.Pending != 4 || out.Applied != 4 || out.Torn != 0 {
		t.Fatalf("ApplyAll outcome %+v", out)
	}
	for i := 0; i < 4*LineWords; i++ {
		r.Store(i, 2)
	}
	c.PWB(r, 0, 4*LineWords)
	out = h.Crash(DropUnfenced, 1)
	if out.Pending != 4 || out.Applied != 0 {
		t.Fatalf("DropUnfenced outcome %+v", out)
	}
}
