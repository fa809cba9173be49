package pmem

import (
	"errors"
	"fmt"
	"os"
)

// This file implements the mmap file-backed region store: the durable shadow
// of every region lives in a memory-mapped file instead of process memory,
// so the heap survives real process death. The file's header pages hold the
// heap's region catalog (catalog.go), which maps region names to (offset,
// length); a fresh process calls OpenFile on the same path and gets back
// every named region with its durable contents, distinguishing first-run
// from restart. Index-based pointers already make all structure state
// position-independent, so no swizzling is needed on reattach.
//
// Durability model. Process-kill durability (SIGKILL, the crashtest kill
// mode) requires no msync at all: the mapping is MAP_SHARED, so every store
// the process executed before dying is in the kernel page cache and reaches
// the file regardless. Power-failure durability additionally requires msync;
// SyncFence/SyncAsync make each PFence/PSync write the fence-accumulated
// line set back to storage, mirroring pwb/pfence semantics onto the file.
// The catalog is msynced at each allocation. DirectStore words (the system
// areas' records and the epoch stamp) are the state the paper's system
// model assumes the platform persists on the algorithms' behalf, so they
// are exempt from fence accounting here as everywhere else.
//
// File layout (word granularity, 8 bytes each):
//
//	[0..3]    magic, version, data capacity (words), data start (words)
//	[8..catWords)  the catalog: two header slots, then catCap entries
//	[dataStart..dataStart+capacity)  region shadows, bump-allocated

// SyncMode selects how fence-ordered write-backs reach storage.
type SyncMode int

const (
	// SyncNone issues no msync: durable against process death (page cache),
	// not against machine failure. The kill harness default.
	SyncNone SyncMode = iota
	// SyncAsync schedules an asynchronous write-back of the fence's line set
	// at each PFence/PSync (MS_ASYNC).
	SyncAsync
	// SyncFence blocks at each PFence/PSync until the fence's line set is on
	// storage (MS_SYNC) — power-failure-grade durability.
	SyncFence
)

func (m SyncMode) String() string {
	switch m {
	case SyncNone:
		return "none"
	case SyncAsync:
		return "async"
	case SyncFence:
		return "fence"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode parses a SyncMode's String form.
func ParseSyncMode(s string) (SyncMode, bool) {
	for m := SyncNone; m <= SyncFence; m++ {
		if m.String() == s {
			return m, true
		}
	}
	return 0, false
}

const (
	fileMagic = 0x50434f4d_42465331 // "PCOMB" file store v1
	// fileVersion covers the file's header and catalog and the layout of
	// every region the structures keep in it; a file of another version is
	// refused, never reinterpreted.
	fileVersion   = 9
	filePageBytes = 4096

	// DefaultFileCapacityWords sizes a newly created file's data area when
	// FileOpts.CapacityWords is zero: 8M words = 64 MiB. The file is sparse
	// on disk: it is created as one hole, a region allocated on it is not
	// zero-written, so its blocks follow the lines written back, and a
	// reopen reads only its data extents.
	DefaultFileCapacityWords = 1 << 23
)

// ErrBadFile reports that a heap file failed structural validation on open
// (bad magic/version, impossible geometry, or an unreadable catalog).
// Catalog damage additionally wraps ErrCorruptCatalog.
var ErrBadFile = errors.New("pmem: bad heap file")

func fileDataStart() int {
	pages := (catWords*8 + filePageBytes - 1) / filePageBytes
	return pages * filePageBytes / 8
}

// fileStore owns the mapping.
type fileStore struct {
	f     *os.File
	data  []byte
	words []uint64
	sync  SyncMode

	capWords  int // data area capacity in words
	dataStart int // first data word

	// created reports that this heap created the file, so every data word
	// past the catalog's next free word is still a hole (zero).
	created bool
}

// catalog returns the catalog laid over the file's header pages; init or
// load commits its header.
func (fs *fileStore) catalog() catalog {
	return catalog{words: fs.words[:catWords], lo: fs.dataStart, hi: fs.dataStart + fs.capWords}
}

// fsCreate initializes a fresh heap file of the given data capacity.
func fsCreate(path string, capWords int, sync SyncMode) (*fileStore, error) {
	ds := fileDataStart()
	size := (ds + capWords) * 8
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		return nil, err
	}
	data, err := mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	fs := &fileStore{f: f, data: data, words: wordsOf(data), sync: sync, capWords: capWords, dataStart: ds, created: true}
	w := fs.words
	w[0] = fileMagic
	w[1] = fileVersion
	w[2] = uint64(capWords)
	w[3] = uint64(ds)
	return fs, nil
}

// fsOpen maps an existing heap file and validates its geometry.
func fsOpen(path string, sync SyncMode) (*fileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := int(st.Size())
	ds := fileDataStart()
	if size < ds*8 || size%8 != 0 {
		f.Close()
		return nil, fmt.Errorf("%w: size %d below header", ErrBadFile, size)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	fs := &fileStore{f: f, data: data, words: wordsOf(data), sync: sync, dataStart: ds}
	w := fs.words
	// Copy the words out: the error is built after close() unmapped them.
	if magic := w[0]; magic != fileMagic {
		fs.close()
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadFile, magic)
	}
	if version := w[1]; version != fileVersion {
		fs.close()
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadFile, version, fileVersion)
	}
	// Compared as a word count, not re-multiplied: a capacity that matches the
	// size only modulo 2^64 must not pass.
	fs.capWords = size/8 - ds
	if w[2] != uint64(fs.capWords) || w[3] != uint64(ds) {
		fs.close()
		return nil, fmt.Errorf("%w: geometry disagrees with file size", ErrBadFile)
	}
	return fs, nil
}

// eachData calls fn(a, b) for each run [a, b) of file words within [lo, hi)
// that the file holds data for, in order; every word outside those runs is
// in a hole and reads zero. Where the filesystem cannot report its extents
// the one run is [lo, hi).
func (fs *fileStore) eachData(lo, hi int, fn func(a, b int)) {
	for lo < hi {
		start, end, err := dataExtent(fs.f, int64(lo)*8)
		switch {
		case err != nil:
			fn(lo, hi)
			return
		case start < 0:
			return
		}
		a := max(lo, int(start/8))
		b := min(hi, int((end+7)/8))
		if a >= b {
			return
		}
		fn(a, b)
		lo = b
	}
}

// syncMeta msyncs the header+catalog pages when a sync mode is active.
func (fs *fileStore) syncMeta() {
	if fs.sync == SyncNone {
		return
	}
	_ = msyncRange(fs.data[:fs.dataStart*8], fs.sync == SyncAsync)
}

// syncWords msyncs the pages covering file words [loW, hiW).
func (fs *fileStore) syncWords(loW, hiW int) {
	if fs.sync == SyncNone || hiW <= loW {
		return
	}
	lo := (loW * 8) &^ (filePageBytes - 1)
	hi := (hiW*8 + filePageBytes - 1) &^ (filePageBytes - 1)
	if hi > len(fs.data) {
		hi = len(fs.data)
	}
	_ = msyncRange(fs.data[lo:hi], fs.sync == SyncAsync)
}

func (fs *fileStore) close() error {
	err := munmapFile(fs.data)
	if cerr := fs.f.Close(); err == nil {
		err = cerr
	}
	fs.data, fs.words = nil, nil
	return err
}

// FileOpts configures OpenFile.
type FileOpts struct {
	// CapacityWords sizes the data area when the file is created; ignored on
	// reattach (the file's own geometry wins). Zero selects
	// DefaultFileCapacityWords.
	CapacityWords int
	// Sync selects msync behavior on fences (see SyncMode).
	Sync SyncMode
	// Cfg carries the usual heap knobs; Mode is forced to ModeShadow (the
	// file is the shadow).
	Cfg Config
}

// OpenFile opens (creating if absent) a file-backed persistent heap. The
// returned restart flag distinguishes first-run (false: a fresh file was
// initialized) from reattach (true: every named region was recovered from
// the file with its durable contents, and callers should run their recovery
// paths). On reattach the catalog is verified before any region is served.
//
// The heap runs in ModeShadow with the shadow of every region living in the
// mapped file; the volatile view is rebuilt from the file at open, which is
// exactly the post-crash state an in-process FinishCrash(DropUnfenced)
// simulates. Call Close when done; the heap must be quiescent and must not
// be used afterwards.
func OpenFile(path string, o FileOpts) (*Heap, bool, error) {
	if o.CapacityWords <= 0 {
		o.CapacityWords = DefaultFileCapacityWords
	}
	cfg := o.Cfg
	cfg.Mode = ModeShadow

	st, err := os.Stat(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return nil, false, err
	}
	if err == nil && st.Size() > 0 {
		fs, err := fsOpen(path, o.Sync)
		if err != nil {
			return nil, false, err
		}
		h := NewHeap(cfg)
		h.fs, h.cat = fs, fs.catalog()
		entries, err := h.cat.load()
		if err != nil {
			fs.close()
			return nil, false, fmt.Errorf("%w: %w", ErrBadFile, err)
		}
		for _, e := range entries {
			r := &Region{
				h:       h,
				name:    e.name,
				id:      len(h.byID),
				words:   make([]uint64, e.len),
				fileOff: e.off,
			}
			r.attachShadow(fs.words[e.off : e.off+e.len : e.off+e.len])
			fs.eachData(e.off, e.off+e.len, func(lo, hi int) {
				r.restoreFromShadow(lo-e.off, hi-e.off)
			})
			h.regions[e.name] = r
			h.byID = append(h.byID, r)
		}
		return h, true, nil
	}

	fs, err := fsCreate(path, o.CapacityWords, o.Sync)
	if err != nil {
		return nil, false, err
	}
	h := NewHeap(cfg)
	h.fs, h.cat = fs, fs.catalog()
	h.cat.init()
	fs.syncMeta()
	return h, false, nil
}

// Close unmaps and closes the backing file of a file-backed heap (no-op for
// in-process heaps). The heap must be quiescent and must not be used after
// Close: region shadows point into the unmapped file.
func (h *Heap) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fs == nil {
		return nil
	}
	err := h.fs.close()
	h.fs = nil
	return err
}

// FileBacked reports whether the heap's durable domain is a mapped file.
func (h *Heap) FileBacked() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fs != nil
}
