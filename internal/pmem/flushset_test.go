package pmem

import "testing"

func TestFlushSetDedupAndReset(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount})
	r := h.AllocOrGet("fs", 64*LineWords)

	var fs FlushSet
	fs.Reset(r)
	fs.Add(0, 1)
	fs.Add(1, 1)                   // same line
	fs.Add(LineWords, 2*LineWords) // lines 1,2
	fs.Add(0, LineWords+1)         // lines 0,1 again
	fs.Add(5*LineWords, 1)         // line 5
	if got := fs.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4 distinct lines", got)
	}
	ctx := h.NewCtx()
	fs.Flush(ctx)
	if got := ctx.Pwbs(); got != 4 {
		t.Fatalf("Flush issued %d pwbs, want 4", got)
	}
	if fs.Len() != 0 {
		t.Fatalf("Flush did not clear the set")
	}

	// The bitmap must be clean after Flush: re-adding the same lines must
	// record them again.
	fs.Add(0, 1)
	if fs.Len() != 1 {
		t.Fatalf("line not re-recordable after Flush")
	}

	// Reset against a smaller region must not carry marks over.
	small := h.AllocOrGet("fs2", 2*LineWords)
	fs.Reset(small)
	if fs.Len() != 0 {
		t.Fatalf("Reset did not clear the set")
	}
	fs.Add(0, 2*LineWords)
	if fs.Len() != 2 {
		t.Fatalf("Len after region switch = %d, want 2", fs.Len())
	}
}

func TestFlushSetEmptyAdd(t *testing.T) {
	h := NewHeap(Config{Mode: ModeCount})
	r := h.AllocOrGet("fs", 4*LineWords)
	var fs FlushSet
	fs.Reset(r)
	fs.Add(0, 0)
	fs.Add(3, -1)
	if fs.Len() != 0 {
		t.Fatalf("zero-width Add recorded lines")
	}
}

// scanFlushSet is the pre-bitmap implementation (linear membership scan),
// kept only as the benchmark baseline quantifying the O(w²) degradation the
// bitmap removes.
type scanFlushSet struct {
	r     *Region
	lines []int
}

func (f *scanFlushSet) add(off, n int) {
	lo, hi := lineRange(off, n)
	for li := lo; li <= hi; li++ {
		found := false
		for _, l := range f.lines {
			if l == li {
				found = true
				break
			}
		}
		if !found {
			f.lines = append(f.lines, li)
		}
	}
}

// benchWidths covers narrow rounds (a few nodes) through the wide batches a
// 16-thread combiner accumulates against a large pool region.
var benchWidths = []struct {
	name  string
	lines int
}{
	{"w=8", 8}, {"w=64", 64}, {"w=512", 512}, {"w=4096", 4096},
}

func BenchmarkFlushSetAdd(b *testing.B) {
	h := NewHeap(Config{Mode: ModeCount})
	for _, w := range benchWidths {
		r := h.AllocOrGet("fsb"+w.name, w.lines*LineWords)
		b.Run(w.name, func(b *testing.B) {
			var fs FlushSet
			for i := 0; i < b.N; i++ {
				fs.Reset(r)
				for l := 0; l < w.lines; l++ {
					fs.Add(l*LineWords, 2) // distinct line per node pair
					fs.Add(l*LineWords, 2) // duplicate hit, the common case
				}
			}
		})
	}
}

func BenchmarkFlushSetAddScan(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(w.name, func(b *testing.B) {
			var fs scanFlushSet
			for i := 0; i < b.N; i++ {
				fs.lines = fs.lines[:0]
				for l := 0; l < w.lines; l++ {
					fs.add(l*LineWords, 2)
					fs.add(l*LineWords, 2)
				}
			}
		})
	}
}
