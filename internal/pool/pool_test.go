package pool

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
)

func newHeap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
}

func TestAllocFreshSequentialWithinChunk(t *testing.T) {
	h := newHeap()
	p := New(h, "q", 1, 2, 1024, 16)
	ctx := h.NewCtx()
	prev := p.AllocFresh(ctx, 0)
	if prev == Nil {
		t.Fatal("allocated nil")
	}
	for i := 0; i < 15; i++ {
		idx := p.AllocFresh(ctx, 0)
		if idx != prev+1 {
			t.Fatalf("chunk nodes not consecutive: %d after %d", idx, prev)
		}
		prev = idx
	}
}

func TestAllocNeverDuplicatesAcrossThreads(t *testing.T) {
	const n, per = 8, 200
	h := newHeap()
	p := New(h, "q", n, 2, n*per+n*16+64, 16)
	got := make([][]uint64, n)
	var wg sync.WaitGroup
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := h.NewCtx()
			for i := 0; i < per; i++ {
				got[tid] = append(got[tid], p.AllocFresh(ctx, tid))
			}
		}(tid)
	}
	wg.Wait()
	seen := map[uint64]bool{Nil: true}
	for _, g := range got {
		for _, idx := range g {
			if seen[idx] {
				t.Fatalf("node %d allocated twice", idx)
			}
			seen[idx] = true
		}
	}
}

func TestFreeListReuse(t *testing.T) {
	h := newHeap()
	p := New(h, "q", 1, 2, 256, 16)
	ctx := h.NewCtx()
	a := p.Alloc(ctx, 0)
	p.Free(0, a)
	if b := p.Alloc(ctx, 0); b != a {
		t.Fatalf("free-list node not reused: got %d want %d", b, a)
	}
}

func TestRecyclingStackLIFO(t *testing.T) {
	h := newHeap()
	p := New(h, "s", 1, 2, 256, 16)
	ctx := h.NewCtx()
	a := p.AllocFresh(ctx, 0)
	b := p.AllocFresh(ctx, 0)
	p.RecyclePush(a)
	p.RecyclePush(b)
	if x, ok := p.RecyclePop(); !ok || x != b {
		t.Fatalf("pop = %d,%v want %d", x, ok, b)
	}
	if x := p.AllocRecycled(ctx, 0); x != a {
		t.Fatalf("AllocRecycled = %d want %d", x, a)
	}
	if _, ok := p.RecyclePop(); ok {
		t.Fatal("recycling stack should be empty")
	}
}

func TestChunkCursorSurvivesCrash(t *testing.T) {
	h := newHeap()
	p := New(h, "q", 1, 2, 256, 16)
	ctx := h.NewCtx()
	var last uint64
	for i := 0; i < 20; i++ { // spans two chunks
		last = p.AllocFresh(ctx, 0)
	}
	h.Crash(pmem.DropUnfenced, 1)
	p2 := New(h, "q", 1, 2, 256, 16)
	ctx2 := h.NewCtx()
	idx := p2.AllocFresh(ctx2, 0)
	if idx <= last {
		t.Fatalf("node %d handed out again after crash (last pre-crash %d)", idx, last)
	}
}

// TestChunkCursorDurableUnderConcurrentAcquisition: threads acquiring chunks
// at the same moment (PWFcomb's competing combiners all allocate) must leave
// a durable cursor that covers every node handed out. Each acquisition
// flushes the cursor's line; if the older of two overlapping flushes could
// land last — as it did before pmem ordered a line's write-backs — a crash
// would hand a live chunk out a second time.
func TestChunkCursorDurableUnderConcurrentAcquisition(t *testing.T) {
	const n, trials = 4, 300
	for trial := 0; trial < trials; trial++ {
		// Charged instructions: the pwb's cost sits between its capture and
		// the fence, which is where a second acquisition has to land.
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow})
		p := New(h, "q", n, 2, 1<<10, 8)
		last := make([]uint64, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for tid := 0; tid < n; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				ctx := h.NewCtx()
				<-start
				for i := 0; i < 3*8; i++ { // three chunk acquisitions each
					last[tid] = p.AllocFresh(ctx, tid)
				}
			}(tid)
		}
		close(start)
		wg.Wait()
		h.Crash(pmem.DropUnfenced, int64(trial))
		cursor := New(h, "q", n, 2, 1<<10, 8).Allocated()
		for tid, idx := range last {
			if idx >= cursor {
				t.Fatalf("trial %d: durable cursor %d does not cover node %d handed to thread %d", trial, cursor, idx, tid)
			}
		}
	}
}

func TestChunkCursorDurableBeforeUse(t *testing.T) {
	// The cursor pwb is followed by a pfence inside AllocFresh, so the new
	// cursor is durable before any node of the chunk can be handed out.
	h := newHeap()
	p := New(h, "q", 1, 2, 256, 8)
	ctx := h.NewCtx()
	p.AllocFresh(ctx, 0)
	if ctx.PendingWritebacks() != 0 {
		t.Fatal("cursor write-back should have drained at the fence")
	}
	if ctx.Pfences() != 1 {
		t.Fatalf("chunk acquisition should fence the cursor, fences=%d", ctx.Pfences())
	}
	if got := p.Region(); got == nil {
		t.Fatal("missing arena region")
	}
	if cur := p.Allocated(); cur != 1+8 {
		t.Fatalf("cursor = %d, want 9", cur)
	}
}

func TestLoadStoreNodeWords(t *testing.T) {
	h := newHeap()
	p := New(h, "q", 1, 3, 64, 8)
	ctx := h.NewCtx()
	idx := p.AllocFresh(ctx, 0)
	p.Store(idx, 0, 11)
	p.Store(idx, 2, 33)
	if p.Load(idx, 0) != 11 || p.Load(idx, 2) != 33 {
		t.Fatal("node word round-trip failed")
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	h := newHeap()
	p := New(h, "q", 1, 2, 9, 8) // one chunk fits, the second does not
	ctx := h.NewCtx()
	for i := 0; i < 8; i++ {
		p.AllocFresh(ctx, 0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	p.AllocFresh(ctx, 0)
}

func TestFlushSetDedupsLines(t *testing.T) {
	h := newHeap()
	r := h.Alloc("a", 64)
	ctx := h.NewCtx()
	var fs pmem.FlushSet
	fs.Reset(r)
	fs.Add(0, 2)  // line 0
	fs.Add(3, 2)  // line 0 again
	fs.Add(8, 1)  // line 1
	fs.Add(6, 4)  // lines 0 and 1 again
	fs.Add(17, 1) // line 2
	if fs.Len() != 3 {
		t.Fatalf("distinct lines = %d, want 3", fs.Len())
	}
	fs.Flush(ctx)
	if ctx.Pwbs() != 3 {
		t.Fatalf("pwbs = %d, want 3", ctx.Pwbs())
	}
	if fs.Len() != 0 {
		t.Fatal("Flush should clear the set")
	}
}

func TestQuickAllocUnique(t *testing.T) {
	// Property: any interleaving of Alloc/Free on one thread never returns a
	// node that is currently live.
	f := func(ops []bool) bool {
		h := newHeap()
		p := New(h, "q", 1, 2, 4096, 8)
		ctx := h.NewCtx()
		live := map[uint64]bool{}
		var lives []uint64
		for _, alloc := range ops {
			if alloc || len(lives) == 0 {
				idx := p.Alloc(ctx, 0)
				if live[idx] {
					return false
				}
				live[idx] = true
				lives = append(lives, idx)
			} else {
				idx := lives[len(lives)-1]
				lives = lives[:len(lives)-1]
				delete(live, idx)
				p.Free(0, idx)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestRecyclingStackConcurrentStress(t *testing.T) {
	// Many goroutines pushing/popping the shared recycling stack: every
	// node stays unique (never handed to two owners at once).
	const n, per = 8, 500
	h := newHeap()
	p := New(h, "s", n, 2, n*per+n*64+64, 32)
	var wg sync.WaitGroup
	var dup atomic.Int32
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := h.NewCtx()
			var held []uint64
			for i := 0; i < per; i++ {
				if i%2 == 0 || len(held) == 0 {
					idx := p.AllocRecycled(ctx, tid)
					// Stamp ownership; a concurrent owner would overwrite.
					p.Store(idx, 0, uint64(tid)+1)
					held = append(held, idx)
				} else {
					idx := held[len(held)-1]
					held = held[:len(held)-1]
					if p.Load(idx, 0) != uint64(tid)+1 {
						dup.Add(1)
						return
					}
					p.RecyclePush(idx)
				}
			}
		}(tid)
	}
	wg.Wait()
	if dup.Load() != 0 {
		t.Fatal("a recycled node was concurrently owned by two threads")
	}
}
