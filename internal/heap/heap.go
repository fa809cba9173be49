// Package heap implements PBheap, the paper's first recoverable concurrent
// heap: a bounded binary min-heap whose whole key array lives in the
// combining state, driven by a single PBcomb instance (Section 5). The
// state-copy cost therefore grows with the heap bound — exactly the
// tradeoff Figure 3b quantifies for bounds 64–1024.
//
// The paper's Section 8 notes that a wait-free heap on PWFcomb is a
// straightforward extension; PWFheap here is that extension.
//
// A Heap is built as the paper builds it: the combining instance plus the
// per-thread sequence numbers and commit record its system model persists,
// which live in the heap's own system area (internal/sysarea) every update
// runs through.
package heap

import (
	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
	"pcomb/internal/vecbatch"
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

// Kind selects the underlying combining protocol: Blocking builds PBheap,
// WaitFree PWFheap.
type Kind = core.Kind

const (
	Blocking = core.Blocking
	WaitFree = core.WaitFree
)

// obj is the sequential bounded min-heap. State layout: [size, key_0 ...
// key_{bound-1}]. It is not a core.SparseObject, and the key array is most of
// its record, so PBheap copies and persists its whole record every round with
// one ranged pwb, the cost Figure 3b measures across bounds.
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
		for i > 0 {
			parent := (i - 1) / 2
			if s.Load(1+parent) <= s.Load(1+i) {
				break
			}
			o.swap(s, parent, i)
			i = parent
		}
		s.Store(0, uint64(size+1))
		r.Ret = InsertOK
	case OpDeleteMin:
		if size == 0 {
			r.Ret = Empty
			return
		}
		r.Ret = s.Load(1)
		s.Store(1, s.Load(1+size-1))
		size--
		s.Store(0, uint64(size))
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
			o.swap(s, i, smallest)
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

func (o obj) swap(s core.State, i, j int) {
	a, b := s.Load(1+i), s.Load(1+j)
	s.Store(1+i, b)
	s.Store(1+j, a)
}

// Heap is a detectably recoverable concurrent bounded min-heap: one
// combining instance behind a system area of its own. The root package
// exports it as pcomb.Heap.
type Heap struct {
	sysarea.Front
	sys *sysarea.Area

	comb  core.Protocol
	bound int
}

// New creates (or re-opens after a crash) a recoverable min-heap for n
// threads, holding at most bound keys, with its system area named
// name+"/sysarea". vecCap above 1 enables the Submit path with up to vecCap
// operations per flush. Re-open with the same bound and vecCap and call
// Recover for every thread before new operations.
func New(h *pmem.Heap, name string, n int, kind Kind, bound, vecCap int) *Heap {
	if bound <= 0 {
		panic("heap: bound must be positive")
	}
	hp := &Heap{bound: bound, sys: sysarea.New(h, name+"/sysarea", n, 1, kind, nil, vecCap)}
	hp.comb = hp.sys.Build(0, name, obj{bound: bound})
	hp.Front = hp.sys.Front(0, 1)
	return hp
}

// Bound returns the heap's capacity.
func (h *Heap) Bound() int { return h.bound }

// orEmpty splits a removal's or read's response into (key, true) or
// (0, false).
func orEmpty(r uint64) (uint64, bool) {
	if r == Empty {
		return 0, false
	}
	return r, true
}

// Insert adds key (must be below Full); it reports false when the heap is
// full.
func (h *Heap) Insert(tid int, key uint64) bool {
	return h.sys.Invoke(tid, 0, OpInsert, key, 0) == InsertOK
}

// DeleteMin removes and returns the smallest key; ok is false when empty.
func (h *Heap) DeleteMin(tid int) (key uint64, ok bool) {
	return orEmpty(h.sys.Invoke(tid, 0, OpDeleteMin, 0, 0))
}

// GetMin returns the smallest key without removing it. It is a validated read
// of the heap's last durable state: it announces nothing and issues no
// persistence instruction, sees every operation that returned before it was
// called, and never returns state a crash could roll back. After a bounded
// number of failed validations it is announced like an update instead, so it
// stays wait-free on PWFheap. A crash-interrupted GetMin is simply re-issued;
// Recover does not report it.
func (h *Heap) GetMin(tid int) (key uint64, ok bool) {
	return orEmpty(h.sys.Read(tid, 0, OpGetMin, 0, 0))
}

// SubmitInsert stages an insert of key on the async pipelined path (requires
// vecCap > 1); the Future's Wait returns InsertOK or Full. The staged batch
// commits when it reaches vecCap operations or on Flush or a Future's Wait;
// until then a crash loses it wholesale.
func (h *Heap) SubmitInsert(tid int, key uint64) vecbatch.Future {
	return h.sys.Submit(tid, 0, OpInsert, key, 0)
}

// SubmitDeleteMin stages a delete-min; Wait returns the key or Empty.
func (h *Heap) SubmitDeleteMin(tid int) vecbatch.Future {
	return h.sys.Submit(tid, 0, OpDeleteMin, 0, 0)
}

// SubmitGetMin stages a get-min; Wait returns the key or Empty.
func (h *Heap) SubmitGetMin(tid int) vecbatch.Future {
	return h.sys.Submit(tid, 0, OpGetMin, 0, 0)
}

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
