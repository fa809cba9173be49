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
	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/heap"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
	"pcomb/internal/sysarea"
)

// Kind selects the combining protocol a structure is built on.
type Kind int

const (
	// Blocking uses PBcomb: fastest, lock-based.
	Blocking Kind = iota
	// WaitFree uses PWFcomb: wait-free progress at a small persistence
	// premium.
	WaitFree
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
	// Volatile disables persistence entirely (the paper's volatile mode).
	Volatile bool
	// PwbOff / PsyncOff replace the respective instruction with a NOP
	// (the Figure 1c / 2c ablations).
	PwbOff   bool
	PsyncOff bool
	// NoCost disables the calibrated CPU cost of persistence instructions
	// (counters still work). Useful in unit tests.
	NoCost bool
}

// System owns a simulated NVMM heap and the structures created on it.
type System struct {
	heap *pmem.Heap
}

// New creates a System.
func New(opts Options) *System {
	mode := pmem.ModeCount
	if opts.CrashTesting {
		mode = pmem.ModeShadow
	}
	if opts.Volatile {
		mode = pmem.ModeVolatile
	}
	return &System{heap: pmem.NewHeap(pmem.Config{
		Mode:     mode,
		PwbOff:   opts.PwbOff,
		PsyncOff: opts.PsyncOff,
		NoCost:   opts.NoCost,
	})}
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

// kindOf converts k to a structure package's own Kind, whose Blocking and
// WaitFree mirror k's (iota order).
func kindOf[K ~int](k Kind) K { return K(k) }
