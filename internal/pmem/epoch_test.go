package pmem

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestEpochTickCadence drives the epoch closer with the fake clock: every
// tick must close exactly one epoch, in order — no wall-clock involved, so the
// cadence contract is exact.
func TestEpochTickCadence(t *testing.T) {
	h := NewHeap(Config{Mode: ModeShadow, NoCost: true})
	tick := make(chan struct{})
	e := NewEpoch(h, "s", EpochOpts{Tick: tick})
	base := e.Closed()
	const n = 5
	for i := 1; i <= n; i++ {
		tick <- struct{}{}
		// The send returns when the goroutine received it; the close itself
		// may still be in flight. Wait is the synchronization point.
		if !e.Wait(base + uint64(i)) {
			t.Fatalf("Wait(%d) reported a crash", base+uint64(i))
		}
		if got := e.Closed(); got != base+uint64(i) {
			t.Fatalf("after tick %d: Closed() = %d, want %d", i, got, base+uint64(i))
		}
	}
	close(tick) // stops the goroutine
}

// TestEpochWaitImpliesDurable pins the ordering contract of Wait: it must
// not resolve before the close's psync retires, and once it has resolved the
// waited-for operation's write-backs really are durable — they survive a
// crash that drops everything unfenced. The deferred write that never saw a
// close is the negative control: it must NOT survive.
func TestEpochWaitImpliesDurable(t *testing.T) {
	h := NewHeap(Config{Mode: ModeShadow, NoCost: true})
	e := NewEpoch(h, "s", EpochOpts{}) // no background closer
	r := h.AllocOrGet("s/data", LineWords)
	ctx := h.NewCtx()
	ctx.SetEpochBuf(e.Buf())

	r.Store(0, 42)
	ctx.PWB(r, 0, 1)
	ctx.PFence()
	ctx.PSync() // epoch mode: buffered, NOT durable yet
	label := e.Now()

	done := make(chan bool, 1)
	go func() { done <- e.Wait(label) }()
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	select {
	case <-done:
		t.Fatal("Wait resolved before any epoch close")
	default:
	}

	e.CloseNow()
	if ok := <-done; !ok {
		t.Fatal("Wait returned false without a crash")
	}

	// A later write buffered into the next (never-closed) epoch.
	r.Store(1, 77)
	ctx.PWB(r, 1, 1)
	ctx.PFence()
	ctx.PSync()

	h.Crash(DropUnfenced, 1)
	if got := r.Load(0); got != 42 {
		t.Fatalf("closed-epoch write lost: word 0 = %d, want 42", got)
	}
	if got := r.Load(1); got != 0 {
		t.Fatalf("open-epoch write survived the crash: word 1 = %d, want 0", got)
	}
	if got := e.Closed(); got != label {
		t.Fatalf("durable stamp = %d, want %d", got, label)
	}
}

// TestEpochCloseRace hammers one epoch's buffer from several writer
// goroutines (each with its own context and disjoint lines) while closes
// come from three directions at once: the background ticker, explicit
// CloseNow calls, and the final Stop. Run under -race this is the flusher's
// data-race certificate; the durability check at the end proves no close
// dropped a captured line.
func TestEpochCloseRace(t *testing.T) {
	const (
		workers = 4
		iters   = 400
	)
	h := NewHeap(Config{Mode: ModeShadow, NoCost: true})
	e := NewEpoch(h, "s", EpochOpts{Interval: 100 * time.Microsecond})
	r := h.AllocOrGet("s/data", workers*LineWords)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := h.NewCtx()
			ctx.SetEpochBuf(e.Buf())
			base := w * LineWords
			for i := 0; i < iters; i++ {
				r.Store(base, uint64(i+1))
				ctx.PWB(r, base, 1)
				ctx.PFence()
				ctx.PSync()
				switch {
				case i%64 == 0:
					e.CloseNow()
				case i%97 == 0:
					e.Wait(e.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	e.Stop() // final close: everything applied above is durable

	h.Crash(DropUnfenced, 1)
	for w := 0; w < workers; w++ {
		if got := r.Load(w * LineWords); got != iters {
			t.Fatalf("worker %d: durable word = %d, want %d", w, got, iters)
		}
	}
}
