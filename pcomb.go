// Package pcomb is a Go implementation of persistent software combining —
// the recoverable synchronization protocols PBcomb (blocking) and PWFcomb
// (wait-free) of Fatourou, Kallimanis & Kosmas (PPoPP 2022), together with
// the recoverable data structures built on them: PBstack/PWFstack,
// PBqueue/PWFqueue, and PBheap (plus the paper's future-work PWFheap).
//
// Because Go exposes no cache-line write-back control, persistence runs
// against a simulated NVMM (see internal/pmem): persistent data lives in
// registered regions, pwb/pfence/psync are explicit instructions with
// Optane-like costs and per-thread counters, and — in crash-testing mode —
// a durable shadow heap decides exactly what survives a simulated power
// failure.
//
// # Quick start
//
//	sys := pcomb.New(pcomb.Options{CrashTesting: true})
//	q := sys.NewQueue("jobs", 4, pcomb.Blocking)
//	q.Enqueue(0, 42)        // thread 0
//	v, ok := q.Dequeue(1)   // thread 1
//
//	sys.Crash(pcomb.DropUnfenced, 1) // simulated power failure
//	q = sys.NewQueue("jobs", 4, pcomb.Blocking) // re-open: durable state
//	resolved := q.Recover(0) // resolve thread 0's interrupted op(s)
//
// Thread ids are fixed in [0, threads); each goroutine must use its own id.
// Sequence numbers and the recovery arguments the paper's system model
// provides are managed internally and persisted in a per-structure system
// area (internal/sysarea; DESIGN.md "System area and recovery contract").
package pcomb

import (
	"time"

	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/heap"
	"pcomb/internal/history"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
	"pcomb/internal/sysarea"
	"pcomb/internal/vecbatch"
)

// Kind selects the combining protocol a structure is built on.
type Kind = core.Kind

const (
	// Blocking uses PBcomb: fastest, lock-based.
	Blocking = core.Blocking
	// WaitFree uses PWFcomb: wait-free progress at a small persistence
	// premium.
	WaitFree = core.WaitFree
)

// CrashPolicy decides which pending write-backs survive a simulated crash.
type CrashPolicy = pmem.CrashPolicy

// Crash policies, re-exported from the persistence substrate.
const (
	DropUnfenced = pmem.DropUnfenced
	ApplyAll     = pmem.ApplyAll
	RandomCut    = pmem.RandomCut
)

// Stats aggregates persistence-instruction counters.
type Stats = pmem.Stats

// Empty is the result a recovered Dequeue/Pop/DeleteMin reports when it
// found the structure empty. User values must stay below it.
const Empty = ^uint64(0)

// Object is a sequential object made recoverable and concurrent by the
// combining protocols; see the core package for the contract.
type Object = core.Object

// SparseObject is the optional Object extension of an Object that marks its
// own stores: one that calls Env.MarkDirty for every state word it stores
// implements it, and rounds on its record, when it is wider than one line,
// then copy and persist only the state lines they dirtied. See the core
// package for the contract.
type SparseObject = core.SparseObject

// State is the word-array view objects operate on.
type State = core.State

// Env is the combiner execution environment passed to Object.Apply.
type Env = core.Env

// Request is one announced operation.
type Request = core.Request

// Options configures a System.
type Options struct {
	// CrashTesting maintains the durable shadow heap so Crash() works.
	CrashTesting bool
	// NoCost disables the calibrated CPU cost of persistence instructions
	// (counters still work). Useful in unit tests.
	NoCost bool
}

// System owns a simulated NVMM heap and the structures created on it.
type System struct {
	heap *pmem.Heap
}

// New creates a System. The paper's volatile mode and its pwb/psync ablations
// are pmem.Config settings: build that heap and wrap it with NewOn.
func New(opts Options) *System {
	mode := pmem.ModeCount
	if opts.CrashTesting {
		mode = pmem.ModeShadow
	}
	return &System{heap: pmem.NewHeap(pmem.Config{Mode: mode, NoCost: opts.NoCost})}
}

// NewOn wraps an existing heap — a file-backed one from pmem.OpenFile, or one
// a crash harness drives itself — so structures can be created on it.
func NewOn(h *pmem.Heap) *System { return &System{heap: h} }

// Heap exposes the underlying simulated NVMM (advanced use: custom regions,
// instruction counters).
func (s *System) Heap() *pmem.Heap { return s.heap }

// Stats returns aggregate persistence-instruction counts.
func (s *System) Stats() Stats { return s.heap.Stats() }

// ResetStats zeroes the counters.
func (s *System) ResetStats() { s.heap.ResetStats() }

// Crash simulates a system-wide power failure: all volatile contents are
// lost, and each thread's pending write-backs survive according to policy.
// Afterwards every structure must be re-opened (call the New* constructor
// with the same name) and each thread's interrupted operation resolved via
// Recover. Requires Options.CrashTesting.
func (s *System) Crash(policy CrashPolicy, seed int64) {
	s.heap.Crash(policy, seed)
}

// Resolved is one operation a structure's Recover settled after a crash: the
// system-area class it ran on (a Map's shard; a Queue's 0 for enqueues and 1
// for dequeues; a ServerStore's 0 map, 1 enqueue, 2 dequeue; otherwise 0), its
// code (one of the structure's Op* constants, or the Object's own code for a
// Recoverable) and arguments as invoked, and its response — Empty for a
// Dequeue, Pop, DeleteMin or GetMin that found nothing. Every structure has
// exactly one Recover(tid) []Resolved: no entry when tid had nothing in
// flight, one for an interrupted scalar operation, one per operation for an
// interrupted batch or transaction. Certain is false only on an Epoch
// structure, for an operation that either became durable or vanished with the
// open epoch (Result is then meaningless).
type Resolved = sysarea.Resolved

// Operation codes reported in Resolved.Op. Each structure has its own code
// space; read a code against the structure whose Recover returned it (on a
// ServerStore, against its Class: the map's and the queue's codes coincide).
const (
	OpEnqueue, OpDequeue = queue.OpEnq, queue.OpDeq

	OpPush, OpPop = stack.OpPush, stack.OpPop

	OpInsert, OpDeleteMin, OpGetMin = heap.OpInsert, heap.OpDeleteMin, heap.OpGetMin

	OpPut, OpGet, OpDelete, OpAdd = hashmap.OpPut, hashmap.OpGet, hashmap.OpDel, hashmap.OpAdd
)

// first returns the options a New* constructor was given, or the zero value.
func first[T any](opts []T) (o T) {
	if len(opts) > 0 {
		o = opts[0]
	}
	return o
}

// Queue is a detectably recoverable concurrent FIFO queue (PBqueue or
// PWFqueue). Values must be below 2^64-1 (the top value is the internal
// empty sentinel). It is queue.Queue itself: `go doc
// pcomb/internal/queue.Queue` lists its own methods, and Recover, SetHistory,
// SetProbe, Flush, Pending and the epoch accessors are sysarea.EpochFront's.
type Queue = queue.Queue

// QueueOptions tunes a queue instance; the zero value is sensible. PBqueue
// recycles nodes; PWFqueue never does, matching the paper.
type QueueOptions struct {
	// Capacity bounds the node arena (0 = default).
	Capacity int
	// VecCap enables the async Submit/Flush API with up to VecCap
	// operations per announcement (0 or 1 = blocking API only). Part of the
	// persistent layout — re-open with the same value.
	VecCap int
	// Epoch switches the queue to epoch-mode relaxed durability (group
	// commit): operations apply and return without touching the persistence
	// instructions on their critical path, a background closer makes whole
	// epochs durable at once, and a crash may lose the operations of the
	// last open epoch — and only those (Recover reports an interrupted
	// operation of that window with Certain=false). Use Sync/WaitDurable for
	// per-operation durability. Part of the persistent layout — re-open with
	// the same value.
	Epoch bool
	// EpochInterval is the background close cadence (Epoch mode; 0 = no
	// ticker, epochs close only via Sync).
	EpochInterval time.Duration
}

// NewQueue creates — or, after Crash, re-opens — a recoverable queue for
// the given number of threads.
func (s *System) NewQueue(name string, threads int, kind Kind, opts ...QueueOptions) *Queue {
	o := first(opts)
	var ep *pmem.Epoch
	if o.Epoch {
		ep = pmem.NewEpoch(s.heap, name, pmem.EpochOpts{Interval: o.EpochInterval})
	}
	return queue.NewOn(s.heap, name, threads, kind, queue.Options{
		Recycling: kind == Blocking, Capacity: o.Capacity, VecCap: o.VecCap, Epoch: ep,
	}, nil, 0)
}

// Stack is a detectably recoverable concurrent stack (PBstack/PWFstack). It
// is stack.Stack itself: `go doc pcomb/internal/stack.Stack` lists its own
// methods, and Recover, SetHistory, SetProbe, Flush and Pending are
// sysarea.Front's.
type Stack = stack.Stack

// StackOptions tunes a stack instance; the zero value is sensible. A stack
// always runs the paper's elimination and recycling optimizations.
type StackOptions struct {
	// Capacity bounds the node arena (0 = default).
	Capacity int
	// VecCap enables the async Submit/Flush API (0 or 1 = blocking only).
	// Part of the persistent layout — re-open with the same value.
	VecCap int
}

// NewStack creates — or re-opens — a recoverable stack.
func (s *System) NewStack(name string, threads int, kind Kind, opts ...StackOptions) *Stack {
	o := first(opts)
	return stack.New(s.heap, name, threads, kind, stack.Options{
		Elimination: true, Recycling: true, Capacity: o.Capacity, VecCap: o.VecCap,
	})
}

// Heap is a detectably recoverable concurrent bounded min-heap (PBheap or the
// wait-free PWFheap extension). It is heap.Heap itself: `go doc
// pcomb/internal/heap.Heap` lists its own methods, and Recover, SetHistory,
// SetProbe, Flush and Pending are sysarea.Front's.
type Heap = heap.Heap

// HeapOptions tunes a heap instance; the zero value is sensible. A heap
// persists its whole key array every round, as the paper's PBheap does.
type HeapOptions struct {
	// VecCap enables the async Submit/Flush API (0 or 1 = blocking only).
	// Part of the persistent layout — re-open with the same value.
	VecCap int
}

// NewHeap creates — or re-opens — a recoverable min-heap holding at most
// bound keys.
func (s *System) NewHeap(name string, threads int, kind Kind, bound int, opts ...HeapOptions) *Heap {
	return heap.New(s.heap, name, threads, kind, bound, first(opts).VecCap)
}

// Recoverable is any sequential Object made recoverable and concurrent by a
// combining protocol — the paper's universal-construction usage. It is
// sysarea.Recoverable itself: `go doc pcomb/internal/sysarea.Recoverable`
// lists its own methods, and Recover, SetHistory, SetProbe, Flush and Pending
// are sysarea.Front's.
type Recoverable = sysarea.Recoverable

// ObjectOptions tunes a Recoverable instance; the zero value is sensible.
// Whether a round persists obj's whole state or only the state lines it
// dirtied is obj's to say: see SparseObject.
type ObjectOptions struct {
	// VecCap enables the async Submit/Flush API (0 or 1 = blocking only).
	// Part of the persistent layout — re-open with the same value.
	VecCap int
}

// NewObject creates — or re-opens — a recoverable version of obj. obj alone
// interprets the op codes and arguments its Recoverable is invoked with: the
// system area reserves no code, so any uint64 is one.
func (s *System) NewObject(name string, threads int, kind Kind, obj Object, opts ...ObjectOptions) *Recoverable {
	return sysarea.NewRecoverable(s.heap, name, threads, kind, obj, first(opts).VecCap)
}

// Future is the handle of an operation submitted through the async
// pipelined API (Submit*). Wait returns the operation's response, flushing
// the submitting thread's staged batch first if necessary; Done reports
// whether the response is already available. Futures must be used by the
// submitting thread and expire once the thread has flushed 2·VecCap further
// operations.
type Future = vecbatch.Future

// History is a per-thread operation recorder for durable-linearizability
// checking: install one with a structure's SetHistory, run a workload,
// and validate the recorded history (completed, pending, and recovered
// operations) against the structure's sequential model with
// internal/linearizability's crash-cut checker. Recording is opt-in; without
// a log an operation pays one branch.
type History = history.Recorder

// NewHistory creates a recorder for threads workers.
func NewHistory(threads int) *History { return history.New(threads) }

// HistoryLog is what SetHistory accepts: a *History, or any other log of
// invocations and responses (the crash tests journal to a file). nil — the
// literal, or a nil *History — removes the log.
type HistoryLog = sysarea.Log
