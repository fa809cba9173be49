//go:build linux

package pmem

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tmpHeapPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "heap.pmem")
}

// TestFileHeapCreateReattach writes durable state through the fence
// pipeline, closes the file, and reattaches from a "fresh process" (a new
// mapping): the catalog must report restart, every named region must come
// back with its fenced contents, and unfenced writes must be gone from the
// durable image as usual.
func TestFileHeapCreateReattach(t *testing.T) {
	path := tmpHeapPath(t)
	h, restart, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if restart {
		t.Fatalf("fresh file reported restart")
	}
	if !h.FileBacked() {
		t.Fatalf("heap not file-backed")
	}
	a := h.Alloc("t/a", 2*LineWords)
	b := h.Alloc("t/b", LineWords)
	ctx := h.NewCtx()
	for i := 0; i < 2*LineWords; i++ {
		a.Store(i, uint64(100+i))
	}
	ctx.PWB(a, 0, 2*LineWords)
	ctx.PSync()
	b.DirectStore(3, 777) // system-persisted: durable without a fence
	b.Store(4, 888)
	ctx.PWB(b, 4, 1) // scheduled but never fenced: must not survive
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	h2, restart, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer h2.Close()
	if !restart {
		t.Fatalf("existing file did not report restart")
	}
	a2 := h2.Region("t/a")
	if a2 == nil {
		t.Fatalf("Region(t/a) = nil after reattach")
	}
	if h2.Region("t/none") != nil {
		t.Fatalf("Region served a name never allocated")
	}
	for i := 0; i < 2*LineWords; i++ {
		if got := a2.Load(i); got != uint64(100+i) {
			t.Fatalf("t/a word %d = %d, want %d", i, got, 100+i)
		}
	}
	b2 := h2.AllocOrGet("t/b", LineWords)
	if got := b2.Load(3); got != 777 {
		t.Fatalf("DirectStore word lost: got %d", got)
	}
	if got := b2.Load(4); got != 0 {
		t.Fatalf("unfenced write survived restart: got %d", got)
	}
	if err := h2.VerifyCatalog(); err != nil {
		t.Fatalf("VerifyCatalog after reattach: %v", err)
	}
}

// TestFileHeapSyncModes exercises the msync paths (fence and async) end to
// end; contents must round-trip identically.
func TestFileHeapSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncFence, SyncAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			path := tmpHeapPath(t)
			h, _, err := OpenFile(path, FileOpts{Sync: mode, Cfg: Config{NoCost: true}})
			if err != nil {
				t.Fatalf("OpenFile: %v", err)
			}
			r := h.Alloc("s/r", LineWords)
			ctx := h.NewCtx()
			r.Store(0, 42)
			ctx.PWBLine(r, 0)
			ctx.PFence()
			h.Close()
			h2, restart, err := OpenFile(path, FileOpts{Sync: mode, Cfg: Config{NoCost: true}})
			if err != nil || !restart {
				t.Fatalf("reopen: restart=%v err=%v", restart, err)
			}
			defer h2.Close()
			if got := h2.Region("s/r").Load(0); got != 42 {
				t.Fatalf("word = %d, want 42", got)
			}
		})
	}
}

// TestFilePersistAllocFree: the same gate on a file heap, in the mode the
// server runs (no msync) and with a blocking msync at every fence.
func TestFilePersistAllocFree(t *testing.T) {
	for _, mode := range []SyncMode{SyncNone, SyncFence} {
		h, _, err := OpenFile(tmpHeapPath(t), FileOpts{Sync: mode, Cfg: Config{NoCost: true}})
		if err != nil {
			t.Fatal(err)
		}
		checkPersistAllocFree(t, h)
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRegionCheckedNotFound: a lookup of a name never allocated misses
// (nil) rather than serving some other region, and an allocated name is
// found as the very region Alloc returned.
func TestRegionCheckedNotFound(t *testing.T) {
	h := NewHeap(Config{Mode: ModeShadow, NoCost: true})
	if r := h.Region("nope"); r != nil {
		t.Fatalf("Region(nope) = %v, want nil", r)
	}
	yes := h.Alloc("yes", LineWords)
	if r := h.Region("yes"); r != yes {
		t.Fatalf("Region(yes) = %v, want the allocated region %v", r, yes)
	}
	if r := h.Region("nope"); r != nil {
		t.Fatalf("Region(nope) after another alloc = %v, want nil", r)
	}
}

// TestOpenCheckedSizeMismatchTyped verifies the size-mismatch error is
// typed and distinguishable from corruption.
func TestOpenCheckedSizeMismatchTyped(t *testing.T) {
	h := NewHeap(Config{Mode: ModeShadow, NoCost: true})
	h.AllocOrGet("r", 2*LineWords)
	_, err := h.OpenChecked("r", 3*LineWords)
	if !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("err = %v, want ErrSizeMismatch", err)
	}
	if errors.Is(err, ErrCorruptCatalog) {
		t.Fatalf("size mismatch wrongly reported as corruption: %v", err)
	}
}

// corruptByteOnDisk flips one byte of the file at off while it is closed.
func corruptByteOnDisk(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open for corruption: %v", err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("read: %v", err)
	}
	b[0] ^= 0x5a
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// TestFileOldVersionRefused: a file whose header carries an older version —
// 1, the layout before the shared system area; 2, the one with the fabric's
// separate redo log and ring-backed vector records; 3, the one whose sharded
// map kept fshard%d and fabric.sys regions apart from the hash map's; 4, the
// one whose server map was eight shards; 5, the one whose epoch-mode server
// ran scalar, with no vector rings or system-area payloads; 6, the one whose
// server map and queue kept a system area and an epoch each; 7, the one whose
// system-area records were scalar or grouped and whose board shards kept a
// reserved thread slot; 8, the one whose system-area records kept the group
// count, done and each group's class and count in words of their own — must
// be refused with ErrBadFile, not attached and misread.
func TestFileOldVersionRefused(t *testing.T) {
	for _, old := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		path := tmpHeapPath(t)
		h, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		h.Alloc("v/r", LineWords)
		if err := h.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatalf("open header: %v", err)
		}
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], old)
		if _, err := f.WriteAt(v[:], 8); err != nil { // header word 1
			t.Fatalf("write version: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close header: %v", err)
		}
		if _, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}}); !errors.Is(err, ErrBadFile) {
			t.Fatalf("version %d: err = %v, want ErrBadFile", old, err)
		}
	}
}

// TestFileCorruptionDetected is the on-disk catalog round-trip: write a
// heap file, corrupt one byte, reopen — the open must fail with
// ErrCorruptCatalog rather than serve damaged metadata.
func TestFileCorruptionDetected(t *testing.T) {
	mk := func(t *testing.T) string {
		path := tmpHeapPath(t)
		h, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		r := h.Alloc("c/r", LineWords)
		ctx := h.NewCtx()
		r.Store(0, 1)
		ctx.PWBLine(r, 0)
		ctx.PSync()
		h.Close()
		return path
	}

	t.Run("catalog-entry", func(t *testing.T) {
		path := mk(t)
		// Flip a byte of entry 0's checksum word.
		off := int64((catStart+catEntryWords-1)*8 + 2)
		corruptByteOnDisk(t, path, off)
		_, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
		if !errors.Is(err, ErrCorruptCatalog) {
			t.Fatalf("err = %v, want ErrCorruptCatalog", err)
		}
	})

	t.Run("header-slot", func(t *testing.T) {
		path := mk(t)
		// Damage the ACTIVE header slot: the double-buffered commit means a
		// torn header write must fall back to the other slot, not fail —
		// but with only one generation ever committed per slot here, slot B
		// holds the region's commit and slot A the empty catalog, so
		// corrupting both must fail with ErrCorruptCatalog.
		corruptByteOnDisk(t, path, int64(catSlotA*8+3))
		corruptByteOnDisk(t, path, int64(catSlotB*8+3))
		_, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
		if !errors.Is(err, ErrCorruptCatalog) {
			t.Fatalf("err = %v, want ErrCorruptCatalog", err)
		}
	})
}

// TestFileCatalogOverlapRefused: catalog entries whose checksums hold but
// whose extents share words, or whose names repeat, must fail the open with
// a typed error. Entries are bump-allocated, so a valid catalog's entries
// tile the data area in order; served as they are, a store to one region
// would read back through the other.
func TestFileCatalogOverlapRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		patch func(a, b []uint64)
	}{
		{"overlap", func(a, b []uint64) { b[0] = a[0] }},
		{"repeated-name", func(a, b []uint64) { copy(b[2:catEntryWords-1], a[2:catEntryWords-1]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpHeapPath(t)
			h, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
			if err != nil {
				t.Fatalf("OpenFile: %v", err)
			}
			h.Alloc("o/a", LineWords)
			h.Alloc("o/b", LineWords)
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 2*catEntryWords*8)
			if _, err := f.ReadAt(buf, catStart*8); err != nil {
				t.Fatal(err)
			}
			e := make([]uint64, 2*catEntryWords)
			for i := range e {
				e[i] = binary.LittleEndian.Uint64(buf[8*i:])
			}
			a, b := e[:catEntryWords], e[catEntryWords:]
			tc.patch(a, b)
			b[catEntryWords-1] = entrySum(b)
			for i, w := range e {
				binary.LittleEndian.PutUint64(buf[8*i:], w)
			}
			if _, err := f.WriteAt(buf, catStart*8); err != nil {
				t.Fatal(err)
			}
			f.Close()
			_, _, err = OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
			if !errors.Is(err, ErrBadFile) || !errors.Is(err, ErrCorruptCatalog) {
				t.Fatalf("err = %v, want ErrBadFile and ErrCorruptCatalog", err)
			}
		})
	}
}

// TestFileHeaderSlotFallback simulates a commit cut off mid-header-write:
// garbage in one slot must not prevent reattach while the other slot is
// valid.
func TestFileHeaderSlotFallback(t *testing.T) {
	path := tmpHeapPath(t)
	h, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	r := h.Alloc("f/r", LineWords)
	ctx := h.NewCtx()
	r.Store(0, 9)
	ctx.PWBLine(r, 0)
	ctx.PSync()
	h.Close()

	// Scribble over the checksum of the stale slot, the one of the lower
	// generation: a commit cut off while writing it leaves it so.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var gens [2][8]byte
	for i, base := range []int{catSlotA, catSlotB} {
		if _, err := f.ReadAt(gens[i][:], int64(base*8)); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	stale := catSlotA
	if binary.LittleEndian.Uint64(gens[1][:]) < binary.LittleEndian.Uint64(gens[0][:]) {
		stale = catSlotB
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], int64((stale+3)*8)); err != nil {
		t.Fatalf("read: %v", err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], int64((stale+3)*8)); err != nil {
		t.Fatalf("write: %v", err)
	}
	f.Close()

	h2, restart, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil {
		t.Fatalf("reopen with one damaged slot: %v", err)
	}
	defer h2.Close()
	if !restart || h2.Region("f/r") == nil {
		t.Fatalf("reattach incomplete: restart=%v", restart)
	}
}
