package pmem

import (
	"errors"
	"fmt"
	"math/rand"

	"pcomb/internal/prim"
)

// The catalog is a heap's region table: one entry per region, in allocation
// order, giving its name and its extent in the heap's data area. A file heap
// keeps it in the file's mapped header pages (filestore.go) and an in-memory
// heap in a slice of its own. Either way the system persists it on the
// algorithms' behalf, so it survives a crash, and a region is served again
// only while its entry verifies. A damaged catalog yields a typed error
// (ErrCorruptCatalog) instead of silently served garbage, which is the
// property the corruption campaigns in internal/crashtest check.
//
// Layout (word offsets into the catalog's words; a file keeps its own header
// in words 0..3):
//
//	[8..11]   header slot A: generation, entry count, next free word, checksum
//	[16..19]  header slot B: same
//	[64..]    entries of catEntryWords words: data offset, length (words),
//	          name length (bytes), name bytes (catNameMax, zero padded),
//	          checksum
//
// The header is double-buffered: a commit writes the entry, then the slot
// that does not hold the committed header, checksum last. A commit cut off
// midway leaves the previous slot intact, and a reopen takes the newest
// slot whose checksum holds. An allocation whose commit was cut off is
// therefore invisible, which is correct: it never returned, so nothing
// durable can reference it.
const (
	catSlotA      = 8
	catSlotB      = 16
	catStart      = 64
	catCap        = 1024 // entries
	catEntryWords = 16
	catNameMax    = 96 // bytes: entry words 3..14 hold the name
	catWords      = catStart + catCap*catEntryWords
)

// ErrCorruptCatalog reports that the heap's region catalog failed a check:
// a checksum, an entry overlapping another or repeating its name, or an
// entry that disagrees with the region the heap serves. The heap's metadata
// was damaged and no region's contents should be trusted.
var ErrCorruptCatalog = errors.New("pmem: corrupt region catalog")

// catHeader is the contents of a header slot.
type catHeader struct {
	gen         uint64
	count, next int
}

type catEntry struct {
	name     string
	off, len int
}

// catalog is a region table laid over words. Its entries divide the data
// area [lo, hi) from lo up to the header's next free word.
type catalog struct {
	words     []uint64
	lo, hi    int
	catHeader // the committed header
}

// The checksums are seeded with the file magic, so an in-memory catalog and
// a file's compute the same words.
func slotSum(gen, count, next uint64) uint64 {
	return prim.Mix(fileMagic ^ prim.Mix(gen) ^ prim.Mix(count^prim.Mix(next)))
}

func entrySum(e []uint64) uint64 {
	s := uint64(fileMagic)
	for _, w := range e[:catEntryWords-1] {
		s = prim.Mix(s ^ w)
	}
	return s
}

// init commits an empty catalog.
func (c *catalog) init() {
	c.catHeader = catHeader{gen: 1, next: c.lo}
	c.writeSlot(catSlotA, c.catHeader)
}

// slot reads the header slot at base. ok reports a valid checksum, a count
// the words have entries for, and a next free word inside the data area.
func (c *catalog) slot(base int) (catHeader, bool) {
	w := c.words[base : base+4]
	ok := w[3] == slotSum(w[0], w[1], w[2]) &&
		w[1] <= uint64((len(c.words)-catStart)/catEntryWords) &&
		w[2] >= uint64(c.lo) && w[2] <= uint64(c.hi)
	return catHeader{gen: w[0], count: int(w[1]), next: int(w[2])}, ok
}

// newest returns the valid header slot of the highest generation.
func (c *catalog) newest() (catHeader, bool) {
	a, okA := c.slot(catSlotA)
	b, okB := c.slot(catSlotB)
	if okB && (!okA || b.gen > a.gen) {
		return b, true
	}
	return a, okA
}

// writeSlot fills a header slot, checksum last.
func (c *catalog) writeSlot(base int, h catHeader) {
	w := c.words[base : base+4]
	w[0], w[1], w[2] = h.gen, uint64(h.count), uint64(h.next)
	w[3] = slotSum(w[0], w[1], w[2])
}

// inactive returns the header slot that does not hold the committed header.
func (c *catalog) inactive() int {
	if h, ok := c.slot(catSlotA); ok && h == c.catHeader {
		return catSlotB
	}
	return catSlotA
}

// entry decodes entry i, checking its checksum and name length.
func (c *catalog) entry(i int) (catEntry, error) {
	base := catStart + i*catEntryWords
	e := c.words[base : base+catEntryWords]
	if entrySum(e) != e[catEntryWords-1] {
		return catEntry{}, fmt.Errorf("%w: entry %d checksum mismatch", ErrCorruptCatalog, i)
	}
	nl := e[2]
	if nl == 0 || nl > catNameMax {
		return catEntry{}, fmt.Errorf("%w: entry %d name length %d", ErrCorruptCatalog, i, nl)
	}
	name := make([]byte, nl)
	for j := range name {
		name[j] = byte(e[3+j/8] >> (8 * uint(j%8)))
	}
	return catEntry{name: string(name), off: int(e[0]), len: int(e[1])}, nil
}

// read validates the catalog as it stands in its words: the newest valid
// header slot, and entries with valid checksums and distinct names that
// divide [lo, next) in allocation order, each starting where the one before
// it ends, so that no two regions share a word.
func (c *catalog) read() (catHeader, []catEntry, error) {
	h, ok := c.newest()
	if !ok {
		return h, nil, fmt.Errorf("%w: no valid header slot", ErrCorruptCatalog)
	}
	entries := make([]catEntry, 0, h.count)
	seen := make(map[string]bool, h.count)
	end := c.lo
	for i := 0; i < h.count; i++ {
		e, err := c.entry(i)
		if err != nil {
			return h, nil, err
		}
		if e.off != end || e.len < 0 || e.len > h.next-end {
			return h, nil, fmt.Errorf("%w: entry %d (%q) is %d words at %d, want a start at %d and an end by %d",
				ErrCorruptCatalog, i, e.name, e.len, e.off, end, h.next)
		}
		if seen[e.name] {
			return h, nil, fmt.Errorf("%w: entry %d repeats the name %q", ErrCorruptCatalog, i, e.name)
		}
		seen[e.name] = true
		end += e.len
		entries = append(entries, e)
	}
	return h, entries, nil
}

// load reads the catalog and takes its newest valid header as committed.
func (c *catalog) load() ([]catEntry, error) {
	h, entries, err := c.read()
	c.catHeader = h
	return entries, err
}

// add appends and commits an entry for a region of the given size and
// returns the region's offset in the data area.
func (c *catalog) add(name string, words int) (int, error) {
	if c.count >= catCap {
		return 0, fmt.Errorf("pmem: region catalog full (%d regions)", c.count)
	}
	if len(name) == 0 || len(name) > catNameMax {
		return 0, fmt.Errorf("pmem: region name %q is empty or exceeds %d bytes", name, catNameMax)
	}
	off := c.next
	if words > c.hi-off {
		return 0, fmt.Errorf("pmem: heap data area full (%d of %d words, need %d more)",
			off-c.lo, c.hi-c.lo, words)
	}
	base := catStart + c.count*catEntryWords
	if base+catEntryWords > len(c.words) {
		c.words = append(c.words, make([]uint64, catEntryWords)...)
	}
	e := c.words[base : base+catEntryWords]
	clear(e)
	e[0], e[1], e[2] = uint64(off), uint64(words), uint64(len(name))
	for j := 0; j < len(name); j++ {
		e[3+j/8] |= uint64(name[j]) << (8 * uint(j%8))
	}
	e[catEntryWords-1] = entrySum(e)

	h := catHeader{gen: c.gen + 1, count: c.count + 1, next: off + words}
	c.writeSlot(c.inactive(), h)
	c.catHeader = h
	return off, nil
}

// checkEntryLocked verifies the catalog entry of a region being reopened:
// the committed header is still the newest valid slot, and the region's
// entry holds its checksum, name and length.
func (h *Heap) checkEntryLocked(r *Region) error {
	if hdr, ok := h.cat.newest(); !ok || hdr != h.cat.catHeader {
		return fmt.Errorf("%w: committed header slot damaged", ErrCorruptCatalog)
	}
	e, err := h.cat.entry(r.id)
	if err != nil {
		return err
	}
	return describes(r.id, e, r)
}

// describes returns an error unless entry i, e, names region r and its
// length.
func describes(i int, e catEntry, r *Region) error {
	if e.name != r.name || e.len != len(r.words) {
		return fmt.Errorf("%w: entry %d is %q (%d words), region is %q (%d words)",
			ErrCorruptCatalog, i, e.name, e.len, r.name, len(r.words))
	}
	return nil
}

// VerifyCatalog checks the whole catalog against the regions the heap
// serves: the committed header is the newest valid slot, and every entry
// holds its checksum, extent, name and length. Any damage returns an error
// wrapping ErrCorruptCatalog.
func (h *Heap) VerifyCatalog() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	hdr, entries, err := h.cat.read()
	if err != nil {
		return err
	}
	if hdr != h.cat.catHeader {
		return fmt.Errorf("%w: newest header is generation %d, committed %d",
			ErrCorruptCatalog, hdr.gen, h.cat.gen)
	}
	for i, e := range entries {
		if err := describes(i, e, h.byID[i]); err != nil {
			return err
		}
	}
	return nil
}

// WordFlip records one injected corruption: catalog word Word XORed with
// Mask. Applying the same flip again reverts it.
type WordFlip struct {
	Word int
	Mask uint64
}

// CorruptCatalog flips bits in up to flips distinct live words of the
// catalog: the committed header slot and the entries in use. The other slot
// and the unused entries are not read while the committed slot is valid. A
// heap whose catalog was corrupted must fail VerifyCatalog with
// ErrCorruptCatalog; a damaged committed slot leaves the other one, which
// lacks the newest region.
func (h *Heap) CorruptCatalog(seed int64, flips int) []WordFlip {
	h.mu.Lock()
	defer h.mu.Unlock()
	active := catSlotA + catSlotB - h.cat.inactive()
	live := []int{active, active + 1, active + 2, active + 3}
	for i := 0; i < h.cat.count*catEntryWords; i++ {
		live = append(live, catStart+i)
	}
	flips = max(0, min(flips, len(live)))
	rng := rand.New(rand.NewSource(seed))
	out := make([]WordFlip, 0, flips)
	for _, li := range rng.Perm(len(live))[:flips] {
		var mask uint64
		for mask == 0 {
			mask = rng.Uint64()
		}
		h.cat.words[live[li]] ^= mask
		out = append(out, WordFlip{Word: live[li], Mask: mask})
	}
	return out
}

// XorFlips applies each flip again; since XOR is an involution this reverts
// corruption previously injected by CorruptCatalog.
func (h *Heap) XorFlips(fs []WordFlip) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range fs {
		h.cat.words[f.Word] ^= f.Mask
	}
}
