// Package pool implements the paper's persistent node allocation discipline
// (Section 5, Memory Management): each thread reserves fixed-size chunks of
// consecutive nodes from a persistent arena, so the nodes a combiner
// allocates while serving one batch sit in consecutive memory addresses and
// persist with few pwbs (persistence principle 3).
//
// Node "pointers" are indices into the arena region; index 0 is reserved as
// nil, which keeps every pointer crash-safe (no Go pointers into volatile
// memory ever reach NVMM).
//
// Two reclamation schemes are provided, mirroring the paper:
//
//   - per-thread free lists (PBqueue): a combiner frees removed nodes to its
//     own volatile list and reuses them later — scattered addresses, so
//     recycled batches cost more pwbs (the effect Figure 2a shows);
//   - a shared recycling stack (PBstack/PWFstack): freed nodes are reused in
//     LIFO order, so recycled nodes re-enter the structure in the order they
//     originally left their chunks.
//
// Free lists are volatile: a crash leaks unreclaimed nodes, never reuses a
// live one, because the chunk cursor is persisted before any node of a new
// chunk can be referenced from durable state.
package pool

import (
	"fmt"
	"sync"

	"pcomb/internal/pmem"
)

// Nil is the reserved null node index.
const Nil uint64 = 0

// Pool is a persistent node arena.
type Pool struct {
	nodes     *pmem.Region
	meta      *pmem.Region // word 0: chunk cursor (first never-handed-out node)
	nodeWords int
	capacity  int
	chunkSize int

	threads []threadAlloc

	mu      sync.Mutex
	recycle []uint64 // shared recycling stack (volatile)
}

type threadAlloc struct {
	cur, end uint64 // current chunk [cur, end)
	free     []uint64
	_        [4]uint64 // reduce false sharing between adjacent entries
}

// New creates (or re-opens after a crash) a pool named name with capacity
// nodes of nodeWords words each, handed out in chunks of chunkSize nodes to
// each of n threads.
func New(h *pmem.Heap, name string, n, nodeWords, capacity, chunkSize int) *Pool {
	if nodeWords <= 0 || capacity <= 1 || chunkSize <= 0 {
		panic("pool: invalid geometry")
	}
	p := &Pool{
		nodes:     h.AllocOrGet(name+"/pool.nodes", capacity*nodeWords),
		meta:      h.AllocOrGet(name+"/pool.meta", pmem.LineWords),
		nodeWords: nodeWords,
		capacity:  capacity,
		chunkSize: chunkSize,
		threads:   make([]threadAlloc, n),
	}
	if p.meta.Load(0) == 0 {
		// First open: skip the reserved nil node.
		p.meta.Store(0, 1)
	}
	return p
}

// Region returns the backing arena region (for combiners that flush node
// lines through a FlushSet).
func (p *Pool) Region() *pmem.Region { return p.nodes }

// Offset returns the word offset of node idx within the arena region.
func (p *Pool) Offset(idx uint64) int { return int(idx) * p.nodeWords }

// Load reads word w of node idx.
func (p *Pool) Load(idx uint64, w int) uint64 {
	return p.nodes.Load(p.Offset(idx) + w)
}

// Store writes word w of node idx.
func (p *Pool) Store(idx uint64, w int, v uint64) {
	p.nodes.Store(p.Offset(idx)+w, v)
}

// AllocFresh hands out the next node from thread tid's chunk, acquiring a
// new chunk when exhausted. The chunk cursor is persisted (pwb+pfence on the
// caller's context) before the first node of a fresh chunk is returned, so a
// crash can never cause a handed-out node to be handed out again.
func (p *Pool) AllocFresh(ctx *pmem.Ctx, tid int) uint64 {
	t := &p.threads[tid]
	if t.cur == t.end {
		start := p.meta.Add(0, uint64(p.chunkSize)) - uint64(p.chunkSize)
		if start+uint64(p.chunkSize) > uint64(p.capacity) {
			panic(fmt.Sprintf("pool: arena exhausted (capacity %d nodes)", p.capacity))
		}
		ctx.PWBLine(p.meta, 0)
		ctx.PFence()
		t.cur, t.end = start, start+uint64(p.chunkSize)
	}
	idx := t.cur
	t.cur++
	return idx
}

// Alloc returns a node from tid's free list if available, else a fresh one.
func (p *Pool) Alloc(ctx *pmem.Ctx, tid int) uint64 {
	t := &p.threads[tid]
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		return idx
	}
	return p.AllocFresh(ctx, tid)
}

// Free returns a node to tid's private free list.
func (p *Pool) Free(tid int, idx uint64) {
	if idx == Nil {
		panic("pool: freeing nil")
	}
	t := &p.threads[tid]
	t.free = append(t.free, idx)
}

// RecyclePush places a node on the shared recycling stack.
func (p *Pool) RecyclePush(idx uint64) {
	if idx == Nil {
		panic("pool: recycling nil")
	}
	p.mu.Lock()
	p.recycle = append(p.recycle, idx)
	p.mu.Unlock()
}

// RecyclePop pops a node from the shared recycling stack, if any.
func (p *Pool) RecyclePop() (uint64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.recycle); n > 0 {
		idx := p.recycle[n-1]
		p.recycle = p.recycle[:n-1]
		return idx, true
	}
	return Nil, false
}

// AllocRecycled prefers the shared recycling stack, then falls back to a
// fresh chunk node (the PBstack scheme).
func (p *Pool) AllocRecycled(ctx *pmem.Ctx, tid int) uint64 {
	if idx, ok := p.RecyclePop(); ok {
		return idx
	}
	return p.AllocFresh(ctx, tid)
}

// Allocated returns the persistent chunk cursor (first never-handed-out
// node); test and capacity-planning helper.
func (p *Pool) Allocated() uint64 { return p.meta.Load(0) }
