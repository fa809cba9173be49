package pmem

import (
	"errors"
	"fmt"
	"os"
)

// This file implements the mmap file-backed region store: the durable shadow
// of every region lives in a memory-mapped file instead of process memory,
// so the heap survives real process death. The file carries a checksummed
// root catalog mapping region names to (offset, length); a fresh process
// calls OpenFile on the same path and gets back every named region with its
// durable contents, distinguishing first-run from restart. Index-based
// pointers already make all structure state position-independent, so no
// swizzling is needed on reattach.
//
// Durability model. Process-kill durability (SIGKILL, the crashtest kill
// mode) requires no msync at all: the mapping is MAP_SHARED, so every store
// the process executed before dying is in the kernel page cache and reaches
// the file regardless. Power-failure durability additionally requires msync;
// SyncFence/SyncAsync make each PFence/PSync write the fence-accumulated
// line set back to storage, mirroring pwb/pfence semantics onto the file.
// DirectStore words (manifest, per-thread sequence numbers, operation
// announcements) are the state the paper's system model assumes the platform
// persists on the algorithms' behalf, so they are exempt from fence
// accounting here as everywhere else.
//
// File layout (word granularity, 8 bytes each):
//
//	[0..7]    magic, version, data capacity (words), data start (words)
//	[8..15]   header slot A: generation, entry count, next free word, checksum
//	[16..23]  header slot B: same
//	[64..]    catalog: fileCatCap entries x fileEntryWords words
//	          entry: data offset, length (words), name length (bytes),
//	                 name bytes (fileNameMax, zero padded), checksum
//	[dataStart..dataStart+capacity)  region shadows, bump-allocated
//
// The mutable header (count, next free) is double-buffered with a
// generation counter and a per-slot checksum: commits write the inactive
// slot in full, checksum last, so a process killed mid-commit leaves the
// previous slot intact and the reopen picks the highest-generation valid
// slot. An allocation whose commit was cut off is therefore invisible after
// restart — correct, because the allocation never returned and nothing
// durable can reference it.

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
	// fileVersion covers the layout of everything the structures keep in the
	// file, not only the header: 2 = the system areas of internal/sysarea
	// (line-rounded per-thread blocks, the fabric's redo log in a region of
	// its own); 3 = one record per commit, whose group table and payload
	// carry a vector's, a flush window's and a transaction's operations (no
	// redo-log region); 4 = one sharded map, whose regions are named
	// shard%d and hashmap.sys with or without posting boards, and whose
	// transaction payload is VecCap; 5 = the server store's map is one
	// combining instance (srv/map/shard0 holds every slot, 512 by default);
	// 6 = the server store stages through windows in epoch mode too, so an
	// epoch-mode server file has vector rings and system-area payloads; 7 =
	// the server store's map and queue share one system area (srv/sysarea)
	// and one epoch stamp (srv/epoch.stamp). A file of another version is
	// refused, never reinterpreted.
	fileVersion    = 7
	fileSlotA      = 8  // header slot A word offset
	fileSlotB      = 16 // header slot B word offset
	fileCatStart   = 64
	fileCatCap     = 1024
	fileEntryWords = 16
	fileNameMax    = 96 // bytes: entry words 3..14 hold the name
	filePageBytes  = 4096

	// DefaultFileCapacityWords sizes a newly created file's data area when
	// FileOpts.CapacityWords is zero: 8M words = 64 MiB (sparse on disk
	// until touched).
	DefaultFileCapacityWords = 1 << 23
)

// ErrBadFile reports that a heap file failed structural validation on open
// (bad magic/version, impossible geometry, or an unreadable root catalog).
// Checksum damage additionally wraps ErrCorruptManifest.
var ErrBadFile = errors.New("pmem: bad heap file")

func fileDataStart() int {
	bytes := (fileCatStart + fileCatCap*fileEntryWords) * 8
	pages := (bytes + filePageBytes - 1) / filePageBytes
	return pages * filePageBytes / 8
}

func fileHeaderSlotSum(gen, count, next uint64) uint64 {
	return mix64(fileMagic ^ mix64(gen) ^ mix64(count^mix64(next)))
}

func fileEntrySum(e []uint64) uint64 {
	s := uint64(fileMagic)
	for _, w := range e[:fileEntryWords-1] {
		s = mix64(s ^ w)
	}
	return s
}

// fileStore owns the mapping and the root catalog.
type fileStore struct {
	f     *os.File
	data  []byte
	words []uint64
	sync  SyncMode

	capWords  int // data area capacity in words
	dataStart int // first data word
	gen       uint64
	count     int // committed catalog entries
	next      int // next free data word (file-absolute)
}

type fileEntry struct {
	name string
	off  int
	len  int
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
	fs := &fileStore{
		f: f, data: data, words: wordsOf(data), sync: sync,
		capWords: capWords, dataStart: ds, gen: 1, count: 0, next: ds,
	}
	w := fs.words
	w[0] = fileMagic
	w[1] = fileVersion
	w[2] = uint64(capWords)
	w[3] = uint64(ds)
	fs.writeSlot(fileSlotA, 1, 0, uint64(ds))
	fs.syncMeta()
	return fs, nil
}

// fsOpen maps an existing heap file and validates its geometry and catalog.
func fsOpen(path string, sync SyncMode) (*fileStore, []fileEntry, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	size := int(st.Size())
	ds := fileDataStart()
	if size < ds*8 || size%8 != 0 {
		f.Close()
		return nil, nil, fmt.Errorf("%w: size %d below header", ErrBadFile, size)
	}
	data, err := mmapFile(f, size)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	fs := &fileStore{f: f, data: data, words: wordsOf(data), sync: sync, dataStart: ds}
	w := fs.words
	// Copy the words out: the error is built after close() unmapped them.
	if magic := w[0]; magic != fileMagic {
		fs.close()
		return nil, nil, fmt.Errorf("%w: bad magic %#x", ErrBadFile, magic)
	}
	if version := w[1]; version != fileVersion {
		fs.close()
		return nil, nil, fmt.Errorf("%w: version %d, want %d", ErrBadFile, version, fileVersion)
	}
	// Compared as a word count, not re-multiplied: a capacity that matches the
	// size only modulo 2^64 must not pass.
	fs.capWords = size/8 - ds
	if w[2] != uint64(fs.capWords) || w[3] != uint64(ds) {
		fs.close()
		return nil, nil, fmt.Errorf("%w: geometry disagrees with file size", ErrBadFile)
	}
	if !fs.loadSlots() {
		fs.close()
		return nil, nil, fmt.Errorf("%w: %w: no valid header slot", ErrBadFile, ErrCorruptManifest)
	}
	entries := make([]fileEntry, 0, fs.count)
	for i := 0; i < fs.count; i++ {
		e := fs.entrySlice(i)
		if fileEntrySum(e) != e[fileEntryWords-1] {
			fs.close()
			return nil, nil, fmt.Errorf("%w: %w: catalog entry %d checksum mismatch",
				ErrBadFile, ErrCorruptManifest, i)
		}
		off, n, nl := int(e[0]), int(e[1]), int(e[2])
		end := ds + fs.capWords
		if nl <= 0 || nl > fileNameMax || off < ds || off > end || n < 0 || n > end-off {
			fs.close()
			return nil, nil, fmt.Errorf("%w: catalog entry %d out of bounds", ErrBadFile, i)
		}
		name := make([]byte, nl)
		for j := 0; j < nl; j++ {
			name[j] = byte(e[3+j/8] >> (8 * uint(j%8)))
		}
		entries = append(entries, fileEntry{name: string(name), off: off, len: n})
	}
	return fs, entries, nil
}

// loadSlots picks the highest-generation header slot with a valid checksum.
func (fs *fileStore) loadSlots() bool {
	ok := false
	for _, base := range [2]int{fileSlotA, fileSlotB} {
		gen, count, next, sum := fs.words[base], fs.words[base+1], fs.words[base+2], fs.words[base+3]
		if sum != fileHeaderSlotSum(gen, count, next) {
			continue
		}
		if count > fileCatCap || int(next) < fs.dataStart || int(next) > fs.dataStart+fs.capWords {
			continue
		}
		if !ok || gen > fs.gen {
			fs.gen, fs.count, fs.next = gen, int(count), int(next)
			ok = true
		}
	}
	return ok
}

// writeSlot fills a header slot, checksum last.
func (fs *fileStore) writeSlot(base int, gen, count, next uint64) {
	fs.words[base] = gen
	fs.words[base+1] = count
	fs.words[base+2] = next
	fs.words[base+3] = fileHeaderSlotSum(gen, count, next)
}

func (fs *fileStore) entrySlice(i int) []uint64 {
	base := fileCatStart + i*fileEntryWords
	return fs.words[base : base+fileEntryWords]
}

// addEntry durably appends a catalog entry and returns the region's data
// offset. The entry is written first, then the header commit flips to the
// inactive slot — a kill between the two leaves the entry invisible.
func (fs *fileStore) addEntry(name string, words int) (int, error) {
	if fs.count >= fileCatCap {
		return 0, fmt.Errorf("pmem: heap file catalog full (%d regions)", fs.count)
	}
	if len(name) == 0 || len(name) > fileNameMax {
		return 0, fmt.Errorf("pmem: region name %q exceeds %d bytes", name, fileNameMax)
	}
	off := fs.next
	if off+words > fs.dataStart+fs.capWords {
		return 0, fmt.Errorf("pmem: heap file data area full (%d of %d words, need %d more)",
			off-fs.dataStart, fs.capWords, words)
	}
	e := fs.entrySlice(fs.count)
	for i := range e {
		e[i] = 0
	}
	e[0] = uint64(off)
	e[1] = uint64(words)
	e[2] = uint64(len(name))
	for j := 0; j < len(name); j++ {
		e[3+j/8] |= uint64(name[j]) << (8 * uint(j%8))
	}
	e[fileEntryWords-1] = fileEntrySum(e)

	inactive := fileSlotA
	if fs.activeSlot() == fileSlotA {
		inactive = fileSlotB
	}
	fs.gen++
	fs.count++
	fs.next = off + words
	fs.writeSlot(inactive, fs.gen, uint64(fs.count), uint64(fs.next))
	fs.syncMeta()
	return off, nil
}

// activeSlot returns the base of the slot holding the current generation.
func (fs *fileStore) activeSlot() int {
	if fs.words[fileSlotA] == fs.gen &&
		fs.words[fileSlotA+3] == fileHeaderSlotSum(fs.words[fileSlotA], fs.words[fileSlotA+1], fs.words[fileSlotA+2]) {
		return fileSlotA
	}
	return fileSlotB
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
// paths). On reattach the root catalog and the region manifest are both
// checksum-verified before any region is served.
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
		fs, entries, err := fsOpen(path, o.Sync)
		if err != nil {
			return nil, false, err
		}
		h := newHeapBare(cfg)
		h.fs = fs
		for _, e := range entries {
			r := &Region{
				h:       h,
				name:    e.name,
				id:      len(h.byID),
				words:   make([]uint64, e.len),
				fileOff: e.off,
			}
			r.attachShadow(fs.words[e.off : e.off+e.len : e.off+e.len])
			r.restoreFromShadow()
			h.regions[e.name] = r
			h.byID = append(h.byID, r)
			if e.name == ManifestRegion {
				h.manifest = r
			}
		}
		if h.manifest == nil {
			fs.close()
			return nil, false, fmt.Errorf("%w: %w: no region manifest in file", ErrBadFile, ErrCorruptManifest)
		}
		if err := h.VerifyManifest(); err != nil {
			fs.close()
			return nil, false, err
		}
		return h, true, nil
	}

	fs, err := fsCreate(path, o.CapacityWords, o.Sync)
	if err != nil {
		return nil, false, err
	}
	h := newHeapBare(cfg)
	h.fs = fs
	h.initManifestLocked()
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
