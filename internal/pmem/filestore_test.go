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
	a2, err := h2.RegionChecked("t/a")
	if err != nil {
		t.Fatalf("RegionChecked(t/a): %v", err)
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
	if err := h2.VerifyManifest(); err != nil {
		t.Fatalf("VerifyManifest after reattach: %v", err)
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

func TestRegionCheckedNotFound(t *testing.T) {
	h := NewHeap(Config{Mode: ModeShadow, NoCost: true})
	if _, err := h.RegionChecked("nope"); !errors.Is(err, ErrRegionNotFound) {
		t.Fatalf("err = %v, want ErrRegionNotFound", err)
	}
	h.Alloc("yes", LineWords)
	if _, err := h.RegionChecked("yes"); err != nil {
		t.Fatalf("existing region: %v", err)
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
	if errors.Is(err, ErrCorruptManifest) {
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
// server map and queue kept a system area and an epoch each — must be refused
// with ErrBadFile, not attached and misread.
func TestFileOldVersionRefused(t *testing.T) {
	for _, old := range []uint64{1, 2, 3, 4, 5, 6} {
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

// TestFileCorruptionDetected is the on-disk manifest round-trip: write a
// heap file, corrupt one byte, reopen — the open must fail with
// ErrCorruptManifest rather than serve damaged metadata.
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
		// Entry 0 is the manifest region; flip a byte of its checksum word.
		off := int64((fileCatStart+fileEntryWords-1)*8 + 2)
		corruptByteOnDisk(t, path, off)
		_, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
		if !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("err = %v, want ErrCorruptManifest", err)
		}
	})

	t.Run("manifest-region", func(t *testing.T) {
		path := mk(t)
		// The manifest is the first region allocated, so its shadow starts
		// at the data area; flip a byte of its header checksum (word 2).
		off := int64((fileDataStart()+2)*8 + 1)
		corruptByteOnDisk(t, path, off)
		_, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
		if !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("err = %v, want ErrCorruptManifest", err)
		}
	})

	t.Run("header-slot", func(t *testing.T) {
		path := mk(t)
		// Damage the ACTIVE header slot: the double-buffered commit means a
		// torn header write must fall back to the other slot, not fail —
		// but with only one generation ever committed per slot here, slot A
		// holds gen>=2 (manifest + regions) and slot B the previous one, so
		// corrupting both must fail with ErrCorruptManifest.
		corruptByteOnDisk(t, path, int64(fileSlotA*8+3))
		corruptByteOnDisk(t, path, int64(fileSlotB*8+3))
		_, _, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
		if !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("err = %v, want ErrCorruptManifest", err)
		}
	})
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

	// Find the inactive slot (the one whose checksum does not validate as
	// the current generation is in the other) and scribble over it.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Corrupt slot B's checksum byte: with two allocations (manifest, f/r)
	// the active slot alternated, but whichever slot is stale, damaging
	// exactly one slot must leave the file openable.
	var b [1]byte
	if _, err := f.ReadAt(b[:], int64((fileSlotB+3)*8)); err != nil {
		t.Fatalf("read: %v", err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], int64((fileSlotB+3)*8)); err != nil {
		t.Fatalf("write: %v", err)
	}
	f.Close()

	h2, restart, err := OpenFile(path, FileOpts{Cfg: Config{NoCost: true}})
	if err != nil {
		// Slot B may have been the active one; then corruption must be
		// reported, which is also correct. But with 3 commits (create,
		// manifest, f/r) the active slot is A (odd number of flips from A).
		t.Fatalf("reopen with one damaged slot: %v", err)
	}
	defer h2.Close()
	if !restart || h2.Region("f/r") == nil {
		t.Fatalf("reattach incomplete: restart=%v", restart)
	}
}
