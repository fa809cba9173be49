//go:build linux

package pmem

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenFile damages the header and root catalog of a valid heap file and
// reopens it: OpenFile must answer with a typed error (ErrBadFile or
// ErrCorruptManifest) or with a heap whose every region can be read and
// written end to end — never a panic, and never a fault on memory the
// mapping does not cover. The damage is a truncation (keep < 0: none) and a
// patch written at a byte offset into the metadata pages; the fuzzer cannot
// forge the checksums, so the seeds that get past them are built here.
func FuzzOpenFile(f *testing.F) {
	const capWords = 1 << 14 // the region manifest alone takes 12k words
	regions := map[string]int{"fz/a": LineWords, "fz/b": 2 * LineWords}
	ds := fileDataStart()

	le := func(words ...uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	// entry is a catalog entry with a valid checksum.
	entry := func(off, n uint64) []byte {
		e := make([]uint64, fileEntryWords)
		e[0], e[1], e[2], e[3] = off, n, 1, 'x'
		e[fileEntryWords-1] = fileEntrySum(e)
		return le(e...)
	}
	firstEntry := uint32(fileCatStart * 8)
	f.Add(int64(-1), uint32(0), le(0xbad))                                         // bad magic
	f.Add(int64(-1), uint32(8), le(1))                                             // old version (reading past a v1 mapping once faulted)
	f.Add(int64((fileCatStart+8)*8), uint32(0), []byte{})                          // truncated inside the catalog
	f.Add(int64(0), uint32(0), []byte{})                                           // zero-length file: created afresh
	f.Add(int64(-1), firstEntry, entry(uint64(ds), capWords+1))                    // entry past CapacityWords
	f.Add(int64(-1), firstEntry, entry(uint64(ds), 1<<63-uint64(ds)))              // entry whose end overflows
	f.Add(int64(-1), firstEntry, entry(uint64(ds+capWords), 0))                    // empty entry at the very end
	f.Add(int64(-1), uint32(16), le(capWords+1<<61))                               // capacity that only matches the size mod 2^64
	f.Add(int64(-1), uint32(fileSlotA*8), le(9, fileCatCap+1, uint64(ds)))         // slot with an impossible count
	f.Add(int64(-1), firstEntry+8*(fileEntryWords-1), le(0))                       // entry checksum
	f.Add(int64((ds+capWords)*8-8), uint32(0), []byte{})                           // one word short
	f.Add(int64(-1), uint32(fileSlotA*8), make([]byte, 8*(fileSlotB-fileSlotA)*2)) // both header slots zeroed

	f.Fuzz(func(t *testing.T, keep int64, off uint32, patch []byte) {
		path := filepath.Join(t.TempDir(), "heap.pmem")
		h, _, err := OpenFile(path, FileOpts{CapacityWords: capWords, Cfg: Config{NoCost: true}})
		if err != nil {
			t.Fatalf("creating the valid file: %v", err)
		}
		for name, words := range regions {
			h.Alloc(name, words)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}

		file, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		size := int64((ds + capWords) * 8)
		if keep >= 0 && keep < size {
			size = keep
			if err := file.Truncate(size); err != nil {
				t.Fatal(err)
			}
		}
		if at := int64(off) % int64(ds*8); at+int64(len(patch)) <= size {
			if _, err := file.WriteAt(patch, at); err != nil {
				t.Fatal(err)
			}
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}

		h, _, err = OpenFile(path, FileOpts{CapacityWords: capWords, Cfg: Config{NoCost: true}})
		if err != nil {
			if !errors.Is(err, ErrBadFile) && !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		defer h.Close()
		for name, words := range regions {
			r, err := h.OpenChecked(name, words)
			if err != nil {
				if !errors.Is(err, ErrCorruptManifest) && !errors.Is(err, ErrSizeMismatch) {
					t.Fatalf("region %q: untyped error: %v", name, err)
				}
				continue
			}
			c := h.NewCtx()
			for w := 0; w < words; w++ {
				r.Store(w, r.Load(w)+1)
			}
			c.PWB(r, 0, words)
			c.PSync()
		}
	})
}
