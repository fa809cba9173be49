package pmem

import (
	"testing"
	"time"

	"pcomb/internal/prim"
)

func TestTouchChargesOnlyOnOwnerChange(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount, MissNs: 5000})
	var w HotWord
	// Same owner repeatedly: only the first transfer may burn.
	start := time.Now()
	h.Touch(&w, 1)
	first := time.Since(start)
	start = time.Now()
	for i := 0; i < 100; i++ {
		h.Touch(&w, 1)
	}
	steady := time.Since(start)
	if steady > first*50 {
		t.Fatalf("same-owner touches burned CPU: first=%v steady(100)=%v", first, steady)
	}
}

func TestTouchDisabledByNoCost(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount, NoCost: true})
	if h.MissCost() != 0 {
		t.Fatal("NoCost must disable the miss cost")
	}
	var w HotWord
	h.Touch(&w, 0) // must be free and not panic
	h.Touch(&w, 1)
}

func TestTouchEnabledInVolatileMode(t *testing.T) {
	// Coherence traffic exists regardless of persistence: volatile mode
	// still charges transfers.
	h := NewHeap(Config{Mode: ModeVolatile})
	if h.MissCost() == 0 {
		t.Fatal("volatile mode must keep the coherence cost model")
	}
}

func TestTouchOther(t *testing.T) {
	prim.TouchOther(prim.CostForNs(10), 1, 1) // same owner: free
	prim.TouchOther(prim.CostForNs(10), 1, 2) // transfer: burns, must return
	prim.TouchOther(0, 1, 2)                  // disabled: free
}

func TestDirectStoreBypassesInstructionPipeline(t *testing.T) {
	h := NewHeap(Config{Mode: ModeShadow, NoCost: true})
	r := h.Alloc("sys", 8)
	r.DirectStore(3, 77)
	if r.Load(3) != 77 {
		t.Fatal("volatile contents not written")
	}
	if r.ShadowLoad(3) != 77 {
		t.Fatal("durable shadow not written")
	}
	if s := h.Stats(); s.Pwbs != 0 || s.Pfences != 0 || s.Psyncs != 0 {
		t.Fatalf("DirectStore counted instructions: %+v", s)
	}
	// And it survives the most adversarial crash without any fence.
	h.Crash(DropUnfenced, 1)
	if r.Load(3) != 77 {
		t.Fatal("system-area write lost at crash")
	}
}

func TestDirectStoreCountMode(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount, NoCost: true})
	r := h.Alloc("sys", 8)
	r.DirectStore(0, 5) // no shadow in count mode: must not panic
	if r.Load(0) != 5 {
		t.Fatal("DirectStore in count mode")
	}
}

func TestTraceRecordsSchedule(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount, NoCost: true})
	r := h.Alloc("a", 64)
	c := h.NewCtx()
	c.StartTrace()
	c.PWB(r, 0, 1)
	c.PWB(r, LineWords, LineWords+1) // lines 1-2
	c.PFence()
	c.PWB(r, 40, 1) // line 5
	c.PSync()
	ev := c.StopTrace()
	if len(ev) != 5 {
		t.Fatalf("events = %d, want 5", len(ev))
	}
	if ev[0].Kind != TracePwb || ev[0].LineLo != 0 || ev[0].LineHi != 0 {
		t.Fatalf("ev0 = %+v", ev[0])
	}
	if ev[1].LineLo != 1 || ev[1].LineHi != 2 {
		t.Fatalf("ev1 = %+v", ev[1])
	}
	if ev[2].Kind != TracePfence || ev[4].Kind != TracePsync {
		t.Fatalf("fence/sync missing: %v", ev)
	}
	d := Dispersal(ev)
	if d.Pwbs != 3 || d.Lines != 4 || d.Fences != 1 || d.Syncs != 1 {
		t.Fatalf("dispersal = %+v", d)
	}
	// Lines {0,1,2,5}: one run of 3 plus one singleton.
	if d.Runs != 2 || d.Consecutivity != 2.0 {
		t.Fatalf("runs/consecutivity = %d/%.2f, want 2/2.00", d.Runs, d.Consecutivity)
	}
	if d.Regions != 1 {
		t.Fatalf("regions = %d", d.Regions)
	}
}

func TestTraceAllMerges(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount, NoCost: true})
	r := h.Alloc("a", 16)
	c1, c2 := h.NewCtx(), h.NewCtx()
	h.StartTraceAll()
	c1.PWB(r, 0, 1)
	c2.PWB(r, 8, 1)
	ev := h.StopTraceAll()
	if len(ev) != 2 {
		t.Fatalf("merged events = %d, want 2", len(ev))
	}
	if (TraceEvent{Kind: TracePwb, Region: "a", LineLo: 1, LineHi: 1}).String() == "" {
		t.Fatal("String")
	}
}
