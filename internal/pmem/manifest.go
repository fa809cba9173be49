package pmem

import (
	"errors"
	"fmt"
	"math/rand"
)

// The region manifest is a checksummed catalogue of every region the heap
// has allocated: name hash, size in words, and a per-entry checksum, plus a
// checksummed header carrying the entry count. It is maintained with
// DirectStore (system-persisted, like the per-thread sequence numbers the
// paper's system model assumes), so it is always durable; re-opening a
// region after a crash validates its entry before serving any data. A
// corrupted manifest therefore produces a typed error (ErrCorruptManifest)
// instead of silently serving garbage — the property the adversarial
// corruption campaigns in internal/crashtest exercise.
const (
	// ManifestRegion is the reserved name of the heap's region manifest.
	// User code must not allocate a region with this name.
	ManifestRegion = "pmem.manifest"

	manifestMagic  = 0x4d414e49_00010007 // "MANI" + version
	manifestHdr    = LineWords           // header words: magic, count, checksum
	manifestStride = 3                   // entry words: nameHash, words, checksum
	manifestCap    = 4096                // max regions per heap
)

// ErrCorruptManifest reports that the durable region manifest failed its
// checksum (or disagrees with the regions actually present): the heap's
// metadata was damaged and no region contents should be trusted.
var ErrCorruptManifest = errors.New("pmem: corrupt region manifest")

func manifestWords() int { return manifestHdr + manifestStride*manifestCap }

// fnv64 hashes a region name (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// mix64 is the splitmix64 finalizer, used as the manifest's checksum mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func manifestEntrySum(nameHash uint64, words int) uint64 {
	return mix64(nameHash ^ mix64(uint64(words)) ^ manifestMagic)
}

func manifestHeaderSum(count int) uint64 {
	return mix64(manifestMagic ^ mix64(uint64(count)))
}

// initManifestLocked creates and initializes the manifest region. Called
// once from NewHeap with h.mu held (via the constructor's single-threaded
// context).
func (h *Heap) initManifestLocked() {
	h.manifest = h.allocLocked(ManifestRegion, manifestWords())
	h.manifest.DirectStore(0, manifestMagic)
	h.manifest.DirectStore(1, 0)
	h.manifest.DirectStore(2, manifestHeaderSum(0))
}

// manifestAddLocked appends an entry for a freshly allocated region.
func (h *Heap) manifestAddLocked(name string, words int) {
	m := h.manifest
	count := int(m.Load(1))
	if count >= manifestCap {
		panic(fmt.Sprintf("pmem: manifest full (%d regions)", count))
	}
	off := manifestHdr + count*manifestStride
	hash := fnv64(name)
	m.DirectStore(off, hash)
	m.DirectStore(off+1, uint64(words))
	m.DirectStore(off+2, manifestEntrySum(hash, words))
	m.DirectStore(1, uint64(count+1))
	m.DirectStore(2, manifestHeaderSum(count+1))
}

// manifestCheckHeaderLocked validates the manifest header.
func (h *Heap) manifestCheckHeaderLocked() error {
	m := h.manifest
	if m.Load(0) != manifestMagic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorruptManifest, m.Load(0))
	}
	count := m.Load(1)
	if count > manifestCap {
		return fmt.Errorf("%w: entry count %d exceeds capacity", ErrCorruptManifest, count)
	}
	if m.Load(2) != manifestHeaderSum(int(count)) {
		return fmt.Errorf("%w: header checksum mismatch", ErrCorruptManifest)
	}
	return nil
}

// manifestVerifyEntryLocked validates the entry for an existing region
// being re-opened with the given size.
func (h *Heap) manifestVerifyEntryLocked(name string, words int) error {
	if err := h.manifestCheckHeaderLocked(); err != nil {
		return err
	}
	m := h.manifest
	count := int(m.Load(1))
	hash := fnv64(name)
	for i := 0; i < count; i++ {
		off := manifestHdr + i*manifestStride
		if m.Load(off) != hash {
			continue
		}
		w := m.Load(off + 1)
		if m.Load(off+2) != manifestEntrySum(hash, int(w)) {
			return fmt.Errorf("%w: entry %d (%s) checksum mismatch", ErrCorruptManifest, i, name)
		}
		if int(w) != words {
			return fmt.Errorf("%w: region %q reopened with %d words, manifest has %d",
				ErrSizeMismatch, name, words, w)
		}
		return nil
	}
	return fmt.Errorf("%w: region %q present but missing from manifest", ErrCorruptManifest, name)
}

// VerifyManifest validates the whole manifest: header checksum, every entry
// checksum, and agreement with the regions actually registered. It returns
// an error wrapping ErrCorruptManifest on any damage.
func (h *Heap) VerifyManifest() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.manifestCheckHeaderLocked(); err != nil {
		return err
	}
	m := h.manifest
	count := int(m.Load(1))
	if want := len(h.byID) - 1; count != want { // manifest itself is not listed
		return fmt.Errorf("%w: %d entries for %d regions", ErrCorruptManifest, count, want)
	}
	byHash := map[uint64]uint64{}
	for i := 0; i < count; i++ {
		off := manifestHdr + i*manifestStride
		hash, w := m.Load(off), m.Load(off+1)
		if m.Load(off+2) != manifestEntrySum(hash, int(w)) {
			return fmt.Errorf("%w: entry %d checksum mismatch", ErrCorruptManifest, i)
		}
		byHash[hash] = w
	}
	for name, r := range h.regions {
		if name == ManifestRegion {
			continue
		}
		w, ok := byHash[fnv64(name)]
		if !ok {
			return fmt.Errorf("%w: region %q missing from manifest", ErrCorruptManifest, name)
		}
		if int(w) != len(r.words) {
			return fmt.Errorf("%w: region %q is %d words, manifest says %d",
				ErrCorruptManifest, name, len(r.words), w)
		}
	}
	return nil
}

// WordFlip records one injected corruption: region word i XORed with Mask.
// Applying the same flip again reverts it.
type WordFlip struct {
	Region string
	Word   int
	Mask   uint64
}

// corruptWords flips `flips` distinct words drawn from candidates.
func corruptWords(r *Region, seed int64, flips int, candidates []int) []WordFlip {
	if len(candidates) == 0 || flips <= 0 {
		return nil
	}
	if flips > len(candidates) {
		flips = len(candidates)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]WordFlip, 0, flips)
	for _, ci := range rng.Perm(len(candidates))[:flips] {
		w := candidates[ci]
		var mask uint64
		for mask == 0 {
			mask = rng.Uint64()
		}
		r.xorWord(w, mask)
		out = append(out, WordFlip{Region: r.name, Word: w, Mask: mask})
	}
	return out
}

// CorruptManifest injects corruption into the live words of the region
// manifest (the checksummed header triple and the entries in use; unused
// capacity carries no information). A heap whose manifest was corrupted
// must fail VerifyManifest with ErrCorruptManifest.
func (h *Heap) CorruptManifest(seed int64, flips int) []WordFlip {
	h.mu.Lock()
	count := int(h.manifest.Load(1))
	m := h.manifest
	h.mu.Unlock()
	live := []int{0, 1, 2}
	for i := 0; i < count*manifestStride; i++ {
		live = append(live, manifestHdr+i)
	}
	return corruptWords(m, seed, flips, live)
}

// XorFlips applies each flip again; since XOR is an involution this reverts
// corruption previously injected by CorruptManifest.
func (h *Heap) XorFlips(fs []WordFlip) {
	for _, f := range fs {
		if r := h.Region(f.Region); r != nil {
			r.xorWord(f.Word, f.Mask)
		}
	}
}
