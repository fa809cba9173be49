// Package heap implements PBheap, the paper's first recoverable concurrent
// heap: a bounded binary min-heap whose whole key array lives in the
// combining state, driven by a single PBcomb instance (Section 5). The
// state-copy cost therefore grows with the heap bound — exactly the
// tradeoff Figure 3b quantifies for bounds 64–1024.
//
// The paper's Section 8 notes that a wait-free heap on PWFcomb is a
// straightforward extension; PWFheap here is that extension.
package heap

import (
	"pcomb/internal/core"
	"pcomb/internal/pmem"
)

// Operation codes.
const (
	OpInsert    uint64 = 1
	OpDeleteMin uint64 = 2
	OpGetMin    uint64 = 3
	// OpLen returns the number of keys (read-only, as OpGetMin).
	OpLen uint64 = 4
)

// Empty is returned by DeleteMin/GetMin on an empty heap.
const Empty = ^uint64(0)

// Full is returned by Insert on a full heap.
const Full = ^uint64(0) - 1

// InsertOK is the successful Insert return value.
const InsertOK uint64 = 0

// Kind selects the underlying combining protocol.
type Kind int

const (
	// Blocking builds PBheap.
	Blocking Kind = iota
	// WaitFree builds PWFheap.
	WaitFree
)

// obj is the sequential bounded min-heap. State layout: [size, key_0 ...
// key_{bound-1}].
type obj struct{ bound int }

func (o obj) StateWords() int { return 1 + o.bound }

func (o obj) Init(s core.State) { s.Store(0, 0) }

func (o obj) Apply(env *core.Env, r *core.Request) {
	s := env.State
	size := int(s.Load(0))
	switch r.Op {
	case OpInsert:
		if size == o.bound {
			r.Ret = Full
			return
		}
		i := size
		s.Store(1+i, r.A0)
		env.MarkDirty(1+i, 1)
		for i > 0 {
			parent := (i - 1) / 2
			if s.Load(1+parent) <= s.Load(1+i) {
				break
			}
			o.swap(env, parent, i)
			i = parent
		}
		s.Store(0, uint64(size+1))
		env.MarkDirty(0, 1)
		r.Ret = InsertOK
	case OpDeleteMin:
		if size == 0 {
			r.Ret = Empty
			return
		}
		r.Ret = s.Load(1)
		s.Store(1, s.Load(1+size-1))
		env.MarkDirty(1, 1)
		size--
		s.Store(0, uint64(size))
		env.MarkDirty(0, 1)
		i := 0
		for {
			l, rt := 2*i+1, 2*i+2
			smallest := i
			if l < size && s.Load(1+l) < s.Load(1+smallest) {
				smallest = l
			}
			if rt < size && s.Load(1+rt) < s.Load(1+smallest) {
				smallest = rt
			}
			if smallest == i {
				break
			}
			o.swap(env, i, smallest)
			i = smallest
		}
	default:
		r.Ret = o.Read(s, r.Op, 0, 0)
	}
}

// Read answers the read-only operations — OpGetMin and OpLen — from s alone
// (core.Reader); Apply answers them through it too. It loads words 0 and 1
// only, so it is in bounds on any record.
func (o obj) Read(s core.State, op, _, _ uint64) uint64 {
	switch op {
	case OpGetMin:
		if s.Load(0) != 0 {
			return s.Load(1)
		}
	case OpLen:
		return s.Load(0)
	}
	return Empty
}

func (o obj) swap(env *core.Env, i, j int) {
	s := env.State
	a, b := s.Load(1+i), s.Load(1+j)
	s.Store(1+i, b)
	s.Store(1+j, a)
	env.MarkDirty(1+i, 1)
	env.MarkDirty(1+j, 1)
}

// Heap is a detectably recoverable concurrent bounded min-heap.
type Heap struct {
	comb  core.Protocol
	bound int
}

// New creates (or re-opens after a crash) a recoverable min-heap for n
// threads, holding at most bound keys.
func New(h *pmem.Heap, name string, n int, kind Kind, bound int) *Heap {
	return NewWith(h, name, n, kind, bound, core.CombOpts{})
}

// NewWith is New with explicit combining options (sparse persistence,
// vectorized-announcement capacity).
func NewWith(h *pmem.Heap, name string, n int, kind Kind, bound int, o core.CombOpts) *Heap {
	if bound <= 0 {
		panic("heap: bound must be positive")
	}
	hp := &Heap{bound: bound}
	switch kind {
	case Blocking:
		hp.comb = core.NewPBCombWith(h, name, n, obj{bound: bound}, o)
	case WaitFree:
		hp.comb = core.NewPWFCombWith(h, name, n, obj{bound: bound}, o)
	default:
		panic("heap: unknown kind")
	}
	return hp
}

// NewSparse creates a PBheap with sparse state persistence: combiners
// persist only the O(log bound) sift path each operation dirtied instead of
// the whole key array, removing most of the heap-size penalty Figure 3b
// quantifies (an extension beyond the paper).
func NewSparse(h *pmem.Heap, name string, n int, bound int) *Heap {
	return NewWith(h, name, n, Blocking, bound, core.CombOpts{Sparse: true})
}

// NewSparseWaitFree is the PWFheap counterpart of NewSparse: every
// pretend-combiner refreshes and persists only the sift paths dirtied since
// its private buffer last matched S, instead of the whole key array per
// attempt.
func NewSparseWaitFree(h *pmem.Heap, name string, n int, bound int) *Heap {
	return NewWith(h, name, n, WaitFree, bound, core.CombOpts{Sparse: true})
}

// Bound returns the heap's capacity.
func (h *Heap) Bound() int { return h.bound }

// Insert adds key (must be below Full); reports false if the heap is full.
func (h *Heap) Insert(tid int, key, seq uint64) bool {
	return h.comb.Invoke(tid, OpInsert, key, 0, seq) == InsertOK
}

// DeleteMin removes and returns the smallest key.
func (h *Heap) DeleteMin(tid int, seq uint64) (uint64, bool) {
	r := h.comb.Invoke(tid, OpDeleteMin, 0, 0, seq)
	if r == Empty {
		return 0, false
	}
	return r, true
}

// GetMin returns the smallest key without removing it: a validated read of
// the last durable record (core's Read) that announces nothing, issues no
// persistence instruction and so takes no sequence number. At this harness
// level it retries until a probe validates against the running writers;
// pcomb.Heap.GetMin, which owns its sequence numbers, announces the read after
// a bounded number of tries instead and so stays wait-free on PWFheap.
func (h *Heap) GetMin(tid int) (key uint64, ok bool) {
	for {
		if r, read := h.comb.Read(tid, OpGetMin, 0, 0); read {
			if r == Empty {
				return 0, false
			}
			return r, true
		}
	}
}

// SetProbe installs p on the heap's combining instance.
func (h *Heap) SetProbe(p core.Probe) { h.comb.SetProbe(p) }

// Protocol exposes the combining instance (harness use).
func (h *Heap) Protocol() core.Protocol { return h.comb }

// Len returns the number of keys: a validated read of the last durable
// record, safe beside running operations.
func (h *Heap) Len() int { return int(h.comb.Peek(OpLen, 0, 0)) }

// Keys returns the raw key array (heap order). Quiescent use only.
func (h *Heap) Keys() []uint64 {
	st := h.comb.CurrentState()
	n := int(st.Load(0))
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = st.Load(1 + i)
	}
	return out
}
