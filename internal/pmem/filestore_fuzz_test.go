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
// ErrCorruptCatalog) or with a heap whose every region can be read and
// written end to end — never a panic, and never a fault on memory the
// mapping does not cover. The damage is a truncation (keep < 0: none) and a
// patch written at a byte offset into the metadata pages; the fuzzer cannot
// forge the checksums, so the seeds that get past them are built here.
func FuzzOpenFile(f *testing.F) {
	const capWords = 1 << 10
	regions := map[string]int{"fz/a": LineWords, "fz/b": 2 * LineWords}
	ds := fileDataStart()

	le := func(words ...uint64) []byte {
		b := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	// entry is a catalog entry with a one-byte name and a valid checksum.
	entry := func(off, n uint64, name byte) []byte {
		e := make([]uint64, catEntryWords)
		e[0], e[1], e[2], e[3] = off, n, 1, uint64(name)
		e[catEntryWords-1] = entrySum(e)
		return le(e...)
	}
	firstEntry := uint32(catStart * 8)
	shared := append(entry(uint64(ds), LineWords, 'a'), entry(uint64(ds), LineWords, 'b')...)
	repeated := append(entry(uint64(ds), LineWords, 'x'), entry(uint64(ds+LineWords), LineWords, 'x')...)
	f.Add(int64(-1), uint32(0), le(0xbad))                                      // bad magic
	f.Add(int64(-1), uint32(8), le(1))                                          // old version (reading past a v1 mapping once faulted)
	f.Add(int64((catStart+8)*8), uint32(0), []byte{})                           // truncated inside the catalog
	f.Add(int64(0), uint32(0), []byte{})                                        // zero-length file: created afresh
	f.Add(int64(-1), firstEntry, entry(uint64(ds), capWords+1, 'x'))            // entry past CapacityWords
	f.Add(int64(-1), firstEntry, entry(uint64(ds), 1<<63-uint64(ds), 'x'))      // entry whose end overflows
	f.Add(int64(-1), firstEntry, entry(uint64(ds+capWords), 0, 'x'))            // empty entry at the very end
	f.Add(int64(-1), uint32(16), le(capWords+1<<61))                            // capacity that only matches the size mod 2^64
	f.Add(int64(-1), uint32(catSlotA*8), le(9, catCap+1, uint64(ds)))           // slot with an impossible count
	f.Add(int64(-1), firstEntry+8*(catEntryWords-1), le(0))                     // entry checksum
	f.Add(int64((ds+capWords)*8-8), uint32(0), []byte{})                        // one word short
	f.Add(int64(-1), uint32(catSlotA*8), make([]byte, 8*(catSlotB-catSlotA)*2)) // both header slots zeroed
	f.Add(int64(-1), firstEntry, shared)                                        // entries sharing words
	f.Add(int64(-1), firstEntry, repeated)                                      // a repeated name

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
			if !errors.Is(err, ErrBadFile) && !errors.Is(err, ErrCorruptCatalog) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		defer h.Close()
		for name, words := range regions {
			r, err := h.OpenChecked(name, words)
			if err != nil {
				if !errors.Is(err, ErrCorruptCatalog) && !errors.Is(err, ErrSizeMismatch) {
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
