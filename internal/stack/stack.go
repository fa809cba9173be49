// Package stack implements the paper's recoverable stacks, PBstack (on
// PBcomb) and PWFstack (on PWFcomb). The stack is a linked list of pool
// nodes; because it has a single synchronization point, the combining state
// is just the top-of-stack node index.
//
// Two optional optimizations from Section 5 are supported, each with an
// ablation switch used by Figure 3a:
//
//   - Elimination: the combiner pairs off concurrent Push and Pop requests
//     in its batch without touching the stack state, which mostly reduces
//     persistence cost (fewer freshly allocated nodes to persist).
//   - Recycling: popped nodes go to a single shared recycling stack, so
//     recycled nodes re-enter the structure in the order they originally
//     left their allocation chunks (persistence principle 3).
//
// A Stack is built as the paper builds it: the combining instance plus the
// per-thread sequence numbers and commit record its system model persists,
// which live in the stack's own system area (internal/sysarea) every
// operation runs through.
package stack

import (
	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/pool"
	"pcomb/internal/sysarea"
	"pcomb/internal/vecbatch"
)

// Operation codes.
const (
	OpPush uint64 = 1
	OpPop  uint64 = 2
)

// Empty is the Pop return value signalling an empty stack; user values must
// not use it.
const Empty = ^uint64(0)

// PushOK is the Push return value.
const PushOK uint64 = 0

// Kind selects the underlying combining protocol: Blocking builds the stack
// on PBcomb (PBstack), WaitFree on PWFcomb (PWFstack).
type Kind = core.Kind

const (
	Blocking = core.Blocking
	WaitFree = core.WaitFree
)

// Options configures a stack instance.
type Options struct {
	// Elimination pairs concurrent Push/Pop in the combiner (default off;
	// the constructors used by benchmarks enable it explicitly).
	Elimination bool
	// Recycling reuses popped nodes through the shared recycling stack.
	Recycling bool
	// Capacity is the node arena size; 0 selects a generous default.
	Capacity int
	// ChunkSize is the per-thread allocation chunk; 0 selects the default.
	ChunkSize int
	// VecCap builds the combining instance with vectorized-announcement
	// support: threads may publish up to VecCap operations per slot toggle
	// (0 or 1 = scalar only). Part of the persistent layout — re-open with
	// the same value.
	VecCap int
}

const (
	nodeWords        = 2 // [value, next]
	defaultCapacity  = 1 << 20
	defaultChunkSize = 256
)

// obj is the sequential stack the combining protocols drive. It implements
// core.BatchObject so the combiner can run elimination across the batch.
type obj struct {
	p   *pool.Pool
	opt Options
	per []roundScratch
}

type roundScratch struct {
	fs     pmem.FlushSet
	alloc  []uint64 // nodes taken from the allocator this round
	freed  []uint64 // nodes popped off the stack this round
	paired []bool   // requests eliminated this round
	open   []int    // unmatched-push stack for ordered elimination
}

func (o *obj) StateWords() int { return 1 }

func (o *obj) Init(s core.State) { s.Store(0, pool.Nil) }

func (o *obj) Apply(env *core.Env, r *core.Request) {
	reqs := []core.Request{*r}
	o.ApplyBatch(env, reqs)
	r.Ret = reqs[0].Ret
}

func (o *obj) alloc(env *core.Env) uint64 {
	sc := &o.per[env.Combiner]
	var idx uint64
	if o.opt.Recycling {
		if got, ok := o.p.RecyclePop(); ok {
			idx = got
		}
	}
	if idx == pool.Nil {
		idx = o.p.Alloc(env.Ctx, env.Combiner)
	}
	sc.alloc = append(sc.alloc, idx)
	return idx
}

// ApplyBatch serves a combined batch of Push/Pop requests on the working
// copy of the state, persisting every node it writes (one pwb per distinct
// cache line) before the protocol persists the state record.
func (o *obj) ApplyBatch(env *core.Env, reqs []core.Request) {
	sc := &o.per[env.Combiner]
	sc.fs.Reset(o.p.Region())
	sc.alloc = sc.alloc[:0]
	sc.freed = sc.freed[:0]

	var paired []bool
	if o.opt.Elimination {
		paired = o.eliminate(sc, reqs)
	}

	top := env.State.Load(0)
	for i := range reqs {
		if paired != nil && paired[i] {
			continue
		}
		r := &reqs[i]
		switch r.Op {
		case OpPush:
			idx := o.alloc(env)
			off := o.p.Offset(idx)
			o.p.Store(idx, 0, r.A0)
			o.p.Store(idx, 1, top)
			sc.fs.Add(off, nodeWords)
			top = idx
			r.Ret = PushOK
		case OpPop:
			if top == pool.Nil {
				r.Ret = Empty
				continue
			}
			r.Ret = o.p.Load(top, 0)
			sc.freed = append(sc.freed, top)
			top = o.p.Load(top, 1)
		default:
			r.Ret = Empty
		}
	}
	env.State.Store(0, top)
	sc.fs.Flush(env.Ctx)
}

// eliminate pairs concurrent pushes and pops: each paired pop returns its
// push's value directly and neither touches the stack (a push immediately
// followed by its pop is a legal linearization of both). It fills in Ret on
// the paired requests and returns a mask of the eliminated indices, or nil
// if nothing paired.
//
// When the batch contains vectorized announcements, requests sharing a Tid
// carry that thread's program order, so free pairing is no longer legal (it
// could hand a pop the value of a push that follows it, or of the wrong
// preceding push). Those batches use per-thread parenthesis matching
// instead, which provably returns the sequential answers.
func (o *obj) eliminate(sc *roundScratch, reqs []core.Request) []bool {
	for i := range reqs {
		if reqs[i].VecIndex() > 0 {
			return o.eliminateOrdered(sc, reqs)
		}
	}
	var pushes, pops []int
	for i := range reqs {
		switch reqs[i].Op {
		case OpPush:
			pushes = append(pushes, i)
		case OpPop:
			pops = append(pops, i)
		}
	}
	k := len(pushes)
	if len(pops) < k {
		k = len(pops)
	}
	if k == 0 {
		return nil
	}
	if cap(sc.paired) < len(reqs) {
		sc.paired = make([]bool, len(reqs))
	}
	paired := sc.paired[:len(reqs)]
	for i := range paired {
		paired[i] = false
	}
	for i := 0; i < k; i++ {
		reqs[pops[i]].Ret = reqs[pushes[i]].A0
		reqs[pushes[i]].Ret = PushOK
		paired[pushes[i]] = true
		paired[pops[i]] = true
	}
	return paired
}

// eliminateOrdered is elimination for batches holding vectorized requests:
// within each thread's (contiguous, program-ordered) run, a pop pairs with
// the nearest preceding unmatched push. Removing such a pair never changes
// any other request's outcome — the classic stack parenthesis property — so
// the surviving requests applied in order still get sequential answers.
// Cross-thread pairs are left to the stack itself; that forgoes some
// elimination but keeps every vector's program order intact.
func (o *obj) eliminateOrdered(sc *roundScratch, reqs []core.Request) []bool {
	if cap(sc.paired) < len(reqs) {
		sc.paired = make([]bool, len(reqs))
	}
	paired := sc.paired[:len(reqs)]
	for i := range paired {
		paired[i] = false
	}
	open := sc.open[:0]
	any := false
	for i := range reqs {
		if i > 0 && reqs[i].Tid != reqs[i-1].Tid {
			open = open[:0]
		}
		switch reqs[i].Op {
		case OpPush:
			open = append(open, i)
		case OpPop:
			if n := len(open); n > 0 {
				j := open[n-1]
				open = open[:n-1]
				reqs[i].Ret = reqs[j].A0
				reqs[j].Ret = PushOK
				paired[i], paired[j] = true, true
				any = true
			}
		}
	}
	sc.open = open[:0]
	if !any {
		return nil
	}
	return paired
}

// Stack is a detectably recoverable concurrent stack: one combining instance
// behind a system area of its own. The root package exports it as
// pcomb.Stack.
type Stack struct {
	sysarea.Front
	sys *sysarea.Area

	comb core.Protocol
	o    *obj
}

// New creates (or re-opens after a crash) a recoverable stack for n threads,
// with its system area named name+"/sysarea". Re-open with the same options
// and call Recover for every thread before new operations.
func New(h *pmem.Heap, name string, n int, kind Kind, opt Options) *Stack {
	if opt.Capacity == 0 {
		opt.Capacity = defaultCapacity
	}
	if opt.ChunkSize == 0 {
		opt.ChunkSize = defaultChunkSize
	}
	o := &obj{
		p:   pool.New(h, name, n, nodeWords, opt.Capacity, opt.ChunkSize),
		opt: opt,
		per: make([]roundScratch, n),
	}
	s := &Stack{o: o, sys: sysarea.New(h, name+"/sysarea", n, 1, kind, nil, opt.VecCap)}
	s.comb = s.sys.Build(0, name, o)
	s.comb.SetCommit(func(env *core.Env, won bool) { o.commit(env.Combiner, won) })
	s.Front = s.sys.Front(0, 1)
	return s
}

// commit finalizes a combining round's allocation bookkeeping: on success
// the popped nodes are reclaimed; on a failed SC the round's allocations are
// returned to the combiner's private free list (they never became visible).
func (o *obj) commit(tid int, success bool) {
	sc := &o.per[tid]
	if success {
		if o.opt.Recycling {
			for _, idx := range sc.freed {
				o.p.RecyclePush(idx)
			}
		}
	} else {
		for _, idx := range sc.alloc {
			o.p.Free(tid, idx)
		}
	}
	sc.alloc = sc.alloc[:0]
	sc.freed = sc.freed[:0]
}

// Push pushes v for thread tid.
func (s *Stack) Push(tid int, v uint64) { s.sys.Invoke(tid, 0, OpPush, v, 0) }

// Pop removes the top value for thread tid; ok is false when empty.
func (s *Stack) Pop(tid int) (v uint64, ok bool) {
	if r := s.sys.Invoke(tid, 0, OpPop, 0, 0); r != Empty {
		return r, true
	}
	return 0, false
}

// SubmitPush stages a push of v on the async pipelined path (requires VecCap
// > 1). The staged batch commits when it reaches VecCap operations or on
// Flush or a Future's Wait; until then a crash loses it wholesale. A flushed
// batch is one system-area record, so Recover resolves an interrupted one as
// a whole.
func (s *Stack) SubmitPush(tid int, v uint64) vecbatch.Future {
	return s.sys.Submit(tid, 0, OpPush, v, 0)
}

// SubmitPop stages a pop; the Future's Wait returns the popped value or
// Empty. Pushes and pops share one staged vector, so the combiner can run
// elimination inside the batch.
func (s *Stack) SubmitPop(tid int) vecbatch.Future {
	return s.sys.Submit(tid, 0, OpPop, 0, 0)
}

// Snapshot walks the stack top-to-bottom. Quiescent use only.
func (s *Stack) Snapshot() []uint64 {
	var out []uint64
	for idx := s.comb.CurrentState().Load(0); idx != pool.Nil; idx = s.o.p.Load(idx, 1) {
		out = append(out, s.o.p.Load(idx, 0))
	}
	return out
}

// Len returns the number of elements. Quiescent use only.
func (s *Stack) Len() int { return len(s.Snapshot()) }
