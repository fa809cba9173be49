//go:build linux

package pmem

import (
	"encoding/binary"
	"math/rand"
	"os"
	"syscall"
	"testing"
)

// fileBytes returns the bytes of storage allocated to the file at path, data
// written through the mapping but still dirty in the page cache included.
func fileBytes(t *testing.T, path string) int64 {
	t.Helper()
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		t.Fatalf("stat: %v", err)
	}
	return st.Blocks * 512
}

// TestFileCreateAllocatesWhatItWrites: creating a file heap and a 2 M-word
// (16 MiB) region allocates storage only for the header and the lines
// written back, not for the region's capacity.
func TestFileCreateAllocatesWhatItWrites(t *testing.T) {
	path := tmpHeapPath(t)
	h, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer h.Close()
	r := h.Alloc("big", 2<<20)
	ctx := h.NewCtx()
	for i := 0; i < LineWords; i++ {
		r.Store(1<<20+i, uint64(i+1))
	}
	ctx.PWB(r, 1<<20, LineWords)
	ctx.PSync()
	if got := fileBytes(t, path); got >= 1<<20 {
		t.Fatalf("a new heap with one written line allocates %d bytes, want under 1 MiB", got)
	}
}

// TestFileReopenRestoresEveryWord: seeded words at random offsets across
// several regions, among them one word in the middle of an otherwise untouched
// 2 M-word region, all come back on reopen, and every other word reads zero.
// The heap is closed without an msync, so under SyncNone the data is still
// dirty in the page cache when the file reopens.
func TestFileReopenRestoresEveryWord(t *testing.T) {
	sizes := []int{5, 3 * LineWords, 4096, 100_003, 2 << 20}
	for _, sync := range []SyncMode{SyncNone, SyncFence} {
		t.Run(sync.String(), func(t *testing.T) {
			path := tmpHeapPath(t)
			h, _, err := OpenFile(path, FileOpts{Sync: sync, Cfg: Config{NoCost: true}})
			if err != nil {
				t.Fatalf("OpenFile: %v", err)
			}
			rng := rand.New(rand.NewSource(int64(sync) + 1))
			ctx := h.NewCtx()
			model := make([][]uint64, len(sizes))
			regions := make([]*Region, len(sizes))
			for k, n := range sizes {
				regions[k] = h.Alloc(string(rune('a'+k)), n)
				model[k] = make([]uint64, n)
			}
			write := func(k, i int) {
				v := rng.Uint64() | 1
				regions[k].Store(i, v)
				model[k][i] = v
				ctx.PWB(regions[k], i, 1)
			}
			for k := 0; k < len(sizes)-1; k++ {
				for j := 0; j < 64; j++ {
					write(k, rng.Intn(sizes[k]))
				}
			}
			write(len(sizes)-1, sizes[len(sizes)-1]/2)
			ctx.PSync()
			if err := h.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			h2, restart, err := OpenFile(path, FileOpts{Sync: sync, Cfg: Config{NoCost: true}})
			if err != nil || !restart {
				t.Fatalf("reopen: restart %v, %v", restart, err)
			}
			defer h2.Close()
			for k, n := range sizes {
				r := h2.Region(string(rune('a' + k)))
				for i := 0; i < n; i++ {
					if got := r.Load(i); got != model[k][i] {
						t.Fatalf("region %d word %d = %#x, want %#x", k, i, got, model[k][i])
					}
				}
			}
		})
	}
}

// TestFileReattachClearsAbandonedSlot: bytes past the catalog's next free
// word of an existing file, such as an allocation killed before its entry
// committed leaves behind, must not show through a region allocated over
// them after a reattach, in its volatile or its durable words.
func TestFileReattachClearsAbandonedSlot(t *testing.T) {
	path := tmpHeapPath(t)
	h, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	h.Alloc("a", 4*LineWords)
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	const n = 4 * LineWords
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	stale := make([]byte, n*8)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(stale[i*8:], 0xdead0000+uint64(i))
	}
	if _, err := f.WriteAt(stale, int64(fileDataStart()+4*LineWords)*8); err != nil {
		t.Fatalf("plant: %v", err)
	}
	f.Close()

	h2, restart, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil || !restart {
		t.Fatalf("reopen: restart %v, %v", restart, err)
	}
	defer h2.Close()
	b := h2.Alloc("b", n)
	if b.fileOff != fileDataStart()+4*LineWords {
		t.Fatalf("region b at file word %d, not over the planted words", b.fileOff)
	}
	for i := 0; i < n; i++ {
		if v, d := b.Load(i), b.ShadowLoad(i); v != 0 || d != 0 {
			t.Fatalf("word %d of a new region reads %#x volatile, %#x durable, want 0", i, v, d)
		}
	}
}
