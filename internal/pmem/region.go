package pmem

import "sync/atomic"

// Region is a named, fixed-size block of simulated persistent memory.
// All access is word-granular and atomic: this keeps optimistic readers
// (PWFcomb's state copy) race-free, and models the single-word atomic
// read/write/CAS primitives the paper's system model assumes.
type Region struct {
	h      *Heap
	name   string
	id     int // index of its catalog entry
	words  []uint64
	shadow []uint64 // durable contents; present only in ModeShadow
	shadMu sync64   // guards shadow and the seq chunks' durable numbers

	// Write-backs of one cache line reach the durable domain in the order
	// they were issued, whichever thread issued them: hardware orders
	// same-address write-backs, so a line's durable image never goes back in
	// time. The simulator captures a line at pwb and applies the capture at
	// its issuer's fence, so it has to enforce that itself: each line's
	// captures are numbered in issue order, the durable line remembers the
	// number it holds, and a capture numbered at or below that is stale (a
	// newer image, which contains everything the stale one promised, is
	// already durable) and is dropped. Without this, two threads flushing the
	// same line — PWFcomb's S, the pool's chunk cursor — can leave the OLDER
	// image durable after both fences retired. The numbers live in chunks
	// allocated when a line of the chunk is first written back, so a large
	// region costs only what it flushes.
	seq []atomic.Pointer[seqChunk]

	// fileOff is the shadow's word offset inside the heap's backing file
	// (meaningful only when the heap is file-backed; used to msync the
	// fence-accumulated line set).
	fileOff int
}

// sync64 is a tiny spin mutex so Region stays lightweight; shadow updates are
// rare (fence/sync-time) and short.
type sync64 struct{ v atomic.Uint32 }

func (m *sync64) lock() {
	for !m.v.CompareAndSwap(0, 1) {
	}
}
func (m *sync64) unlock() { m.v.Store(0) }

// Name returns the region's registered name.
func (r *Region) Name() string { return r.name }

// Len returns the region size in words.
func (r *Region) Len() int { return len(r.words) }

// Load atomically reads word i.
func (r *Region) Load(i int) uint64 {
	return atomic.LoadUint64(&r.words[i])
}

// Store atomically writes word i.
func (r *Region) Store(i int, v uint64) {
	atomic.StoreUint64(&r.words[i], v)
}

// CAS performs a compare-and-swap on word i.
func (r *Region) CAS(i int, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(&r.words[i], old, new)
}

// Add atomically adds delta to word i and returns the new value.
func (r *Region) Add(i int, delta uint64) uint64 {
	return atomic.AddUint64(&r.words[i], delta)
}

// DirectStore writes word i to both the volatile contents and the durable
// shadow, bypassing the pwb/pfence/psync pipeline and its counters. It
// models the auxiliary state the paper assumes the *system* persists on the
// algorithms' behalf (per-thread sequence numbers and the arguments of the
// operation in progress, needed to invoke recovery functions) — detectable
// recoverability cannot be achieved without such support [Ben-Baruch et
// al.], so its cost is not attributed to the algorithms.
func (r *Region) DirectStore(i int, v uint64) {
	atomic.StoreUint64(&r.words[i], v)
	if r.shadow != nil {
		r.shadMu.lock()
		r.shadow[i] = v
		r.shadMu.unlock()
	}
}

// CopyWords copies n words from src starting at srcOff into this region at
// dstOff, word-atomically. Concurrent writers may interleave; callers that
// need a consistent snapshot must validate afterwards (as PWFcomb does).
func (r *Region) CopyWords(dstOff int, src *Region, srcOff, n int) {
	for i := 0; i < n; i++ {
		atomic.StoreUint64(&r.words[dstOff+i], atomic.LoadUint64(&src.words[srcOff+i]))
	}
}

// Snapshot copies n words starting at off into dst (a plain slice).
func (r *Region) Snapshot(dst []uint64, off, n int) {
	for i := 0; i < n; i++ {
		dst[i] = atomic.LoadUint64(&r.words[off+i])
	}
}

// RoundUpLine rounds a word count up to a whole number of cache lines, the
// stride at which consecutive records or per-thread blocks never share one.
func RoundUpLine(words int) int {
	return (words + LineWords - 1) / LineWords * LineWords
}

// lineRange returns the [first,last] inclusive cache-line indices covering
// words [off, off+n).
func lineRange(off, n int) (int, int) {
	if n <= 0 {
		return 0, -1
	}
	return off / LineWords, (off + n - 1) / LineWords
}

// seqChunk holds the write-back ordering state of seqChunkLines consecutive
// lines: per line, the number of captures issued (atomic) and the number of
// the capture the durable line holds (guarded by shadMu).
type seqChunk struct{ issued, durable [seqChunkLines]uint64 }

const seqChunkLines = 512

// attachShadow installs the durable image and its per-line ordering state.
func (r *Region) attachShadow(shadow []uint64) {
	lines := RoundUpLine(len(shadow)) / LineWords
	r.shadow = shadow
	r.seq = make([]atomic.Pointer[seqChunk], (lines+seqChunkLines-1)/seqChunkLines)
}

// lineSeq returns the ordering state of line li's chunk, creating it on the
// chunk's first write-back.
func (r *Region) lineSeq(li int) *seqChunk {
	p := &r.seq[li/seqChunkLines]
	if c := p.Load(); c != nil {
		return c
	}
	p.CompareAndSwap(nil, new(seqChunk))
	return p.Load()
}

// captureLine fills f with the write-back of cache line li as issued right
// now: the line's current volatile contents (the region's last line may be
// short) and the capture's number. The number is drawn BEFORE the words are
// read, so a higher-numbered capture read every word no earlier than a
// lower-numbered one was issued: it covers every store the lower one's pwb
// promised. The image lands in the caller's record, already in its queue,
// not in a buffer of its own: a pwb sits on every operation's path and must
// not allocate.
func (r *Region) captureLine(li int, f *flushRec) {
	f.r, f.line = r, li
	f.seq = atomic.AddUint64(&r.lineSeq(li).issued[li%seqChunkLines], 1)
	lo := li * LineWords
	f.n = min(LineWords, len(r.words)-lo)
	for i := 0; i < f.n; i++ {
		f.data[i] = atomic.LoadUint64(&r.words[lo+i])
	}
}

// landing reports whether capture seq of line li is newer than what the
// durable line holds, and if so records it as the line's durable capture.
// Caller holds shadMu.
func (r *Region) landing(li int, seq uint64) bool {
	durable := &r.lineSeq(li).durable[li%seqChunkLines]
	if seq <= *durable {
		return false
	}
	*durable = seq
	return true
}

// applyShadowLine makes capture seq of line li durable, unless a newer
// capture of the line already is.
func (r *Region) applyShadowLine(li int, data []uint64, seq uint64) {
	lo := li * LineWords
	r.shadMu.lock()
	if r.landing(li, seq) {
		copy(r.shadow[lo:lo+len(data)], data)
	}
	r.shadMu.unlock()
}

// applyShadowWords makes a word-granular subset of capture seq of line li
// durable (unless a newer capture already is): word j of the capture is
// applied iff bit j of mask is set. This models a torn cache-line write-back
// — persistence is atomic at word granularity only, so a line pending at the
// crash may reach the durable domain partially.
func (r *Region) applyShadowWords(li int, data []uint64, mask, seq uint64) {
	lo := li * LineWords
	r.shadMu.lock()
	if r.landing(li, seq) {
		for j := range data {
			if mask&(1<<uint(j)) != 0 {
				r.shadow[lo+j] = data[j]
			}
		}
	}
	r.shadMu.unlock()
}

// restoreFromShadow overwrites volatile words [lo, hi) with the durable
// shadow, simulating the state visible after a power failure. A crash
// restores every word. A reopen restores only the file's data extents
// (fileStore.eachData): the region's volatile words start at zero and a
// hole reads zero, so the words outside them already agree, and neither the
// file's holes nor the volatile pages behind them are touched. Within the
// range only words that differ are stored, so the zero pages of unused
// capacity that the file does hold stay non-resident too.
func (r *Region) restoreFromShadow(lo, hi int) {
	r.shadMu.lock()
	for i, v := range r.shadow[lo:hi] {
		if atomic.LoadUint64(&r.words[lo+i]) != v {
			atomic.StoreUint64(&r.words[lo+i], v)
		}
	}
	r.shadMu.unlock()
}

// ShadowLoad reads word i of the durable shadow (test helper).
func (r *Region) ShadowLoad(i int) uint64 {
	r.shadMu.lock()
	v := r.shadow[i]
	r.shadMu.unlock()
	return v
}
