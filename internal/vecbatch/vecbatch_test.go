package vecbatch

import (
	"testing"

	"pcomb/internal/core"
)

// echoPipe's commit function answers op i of the flush numbered gen with
// gen<<8 | A0, so a response names both the flush and the op it came from.
func echoPipe(cap int, flushes *int) *Pipe {
	return New(1, cap, func(_ int, ops []core.VecOp, rets []uint64) {
		for i, op := range ops {
			rets[i] = uint64(*flushes)<<8 | op.A0
		}
		*flushes++
	})
}

func TestPendingAndAutoFlushAtCap(t *testing.T) {
	flushes := 0
	p := echoPipe(3, &flushes)
	if p.Cap() != 3 || p.Pending(0) != 0 {
		t.Fatalf("fresh pipe: cap %d pending %d", p.Cap(), p.Pending(0))
	}
	a := p.Submit(0, core.VecOp{A0: 1})
	b := p.Submit(0, core.VecOp{A0: 2})
	if p.Pending(0) != 2 || flushes != 0 || a.Done() || b.Done() {
		t.Fatalf("after 2 of 3: pending %d flushes %d done %v,%v", p.Pending(0), flushes, a.Done(), b.Done())
	}
	c := p.Submit(0, core.VecOp{A0: 3}) // reaches Cap: commits on its own
	if p.Pending(0) != 0 || flushes != 1 || !a.Done() || !c.Done() {
		t.Fatalf("at cap: pending %d flushes %d done %v,%v", p.Pending(0), flushes, a.Done(), c.Done())
	}
	for i, f := range []Future{a, b, c} {
		if got, want := f.Wait(), uint64(i+1); got != want {
			t.Fatalf("op %d = %#x, want %#x", i, got, want)
		}
	}
	p.Flush(0) // nothing staged: no commit
	if flushes != 1 {
		t.Fatalf("empty Flush committed (flushes = %d)", flushes)
	}
	d := p.Submit(0, core.VecOp{A0: 4})
	if got := d.Wait(); got != 1<<8|4 || flushes != 2 || p.Pending(0) != 0 {
		t.Fatalf("Wait on a staged op = %#x (flushes %d, pending %d), want it to flush", got, flushes, p.Pending(0))
	}
}

// flushOne stages one op and commits it.
func flushOne(p *Pipe, a0 uint64) Future {
	f := p.Submit(0, core.VecOp{A0: a0})
	p.Flush(0)
	return f
}

func TestDoubleBufferReuse(t *testing.T) {
	flushes := 0
	p := echoPipe(4, &flushes) // a ring of 8 responses: two full vectors
	f0 := flushOne(p, 10)      // op 0 -> ring[0]
	f1 := flushOne(p, 11)      // op 1 -> ring[1]
	for a0 := uint64(12); a0 < 18; a0++ {
		flushOne(p, a0) // ops 2..7: six one-op flushes fill the ring
	}
	// Seven further flushes, but fewer than 8 further ops: f0 is intact.
	if got := f0.Wait(); got != 0<<8|10 {
		t.Fatalf("f0 after 7 more ops = %#x, want %#x", got, 10)
	}
	f8 := flushOne(p, 18) // op 8 -> ring[0] again, over f0's response
	if got := f1.Wait(); got != 1<<8|11 {
		t.Fatalf("f1 = %#x, want %#x: op 8 must not touch ring[1]", got, 1<<8|11)
	}
	if got := f8.Wait(); got != 8<<8|18 {
		t.Fatalf("f8 = %#x, want %#x", got, 8<<8|18)
	}
	if got := p.th[0].ring[0]; got != 8<<8|18 {
		t.Fatalf("ring[0] = %#x: op 8 did not reuse op 0's slot", got)
	}
}

func TestFutureExpires(t *testing.T) {
	flushes := 0
	p := echoPipe(2, &flushes) // a ring of 4 responses
	old := flushOne(p, 1)
	for i := 0; i < 3; i++ {
		flushOne(p, 9)
	}
	if got := old.Wait(); got != 1 {
		t.Fatalf("three further ops: Wait = %#x, want 1", got)
	}
	flushOne(p, 9) // the fourth further op overwrote old's slot
	defer func() {
		const want = "vecbatch: Future expired (its response buffer has been reused)"
		if r := recover(); r != want {
			t.Fatalf("Wait on an expired future: recovered %v, want panic %q", r, want)
		}
	}()
	old.Wait()
}
