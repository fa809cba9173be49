// Package core implements the paper's two recoverable software-combining
// protocols: PBcomb (Algorithm 1, blocking) and PWFcomb (Algorithm 2,
// wait-free). Both turn any sequential object into a detectably recoverable
// concurrent object.
//
// The per-object combining state (the paper's StateRec) is laid out as one
// contiguous block of persistent words —
//
//	[ object state | ReturnVal[0..n-1] | Deactivate[0..n-1] | Index[0..n-1] | pid ]
//
// (the Index vector and pid only exist for PWFcomb) — which is persistence
// principle 3 made concrete: a combiner persists the whole record with one
// ranged pwb over consecutive addresses.
package core

import (
	"sync/atomic"

	"pcomb/internal/pmem"
)

// State is a view of an object's state words inside a StateRec. All access
// is word-atomic so that PWFcomb's optimistic copies are race-free.
type State struct {
	r   *pmem.Region
	off int
	n   int
}

// Words returns the number of state words.
func (s State) Words() int { return s.n }

// Load reads state word i.
func (s State) Load(i int) uint64 {
	if i < 0 || i >= s.n {
		panic("core: state index out of range")
	}
	return s.r.Load(s.off + i)
}

// Store writes state word i.
func (s State) Store(i int, v uint64) {
	if i < 0 || i >= s.n {
		panic("core: state index out of range")
	}
	s.r.Store(s.off+i, v)
}

// Request is one announced operation, as captured by a combiner.
type Request struct {
	Tid uint64 // announcing thread
	Op  uint64 // object-defined operation code
	A0  uint64 // first argument
	A1  uint64 // second argument
	Ret uint64 // response, filled in by Apply/ApplyBatch

	act uint64 // captured activate bit; consumed by the combiner
	vi  int    // index within the announcing thread's vector (0 for scalars)
}

// VecIndex returns the request's position within its thread's vectorized
// announcement (0 for scalar invocations). BatchObjects that reorder or pair
// requests across the batch — the stack's elimination, say — must preserve
// the relative order of requests sharing a Tid, because a vector's ops carry
// the announcing thread's program order.
func (r *Request) VecIndex() int { return r.vi }

// VecOp is one operation of a vectorized announcement (see InvokeVec): up to
// VecCap of them are published in the announcing thread's persistent argument
// ring and served with a single slot toggle.
type VecOp struct {
	Op uint64
	A0 uint64
	A1 uint64
}

// CombOpts configures protocol construction beyond the defaults. The options
// are part of the instance's persistent layout: an instance must be re-opened
// after a crash with the same options it was created with (like the object's
// StateWords).
type CombOpts struct {
	// VecCap is the maximum number of operations a thread can publish in one
	// vectorized announcement; 0 or 1 builds a scalar-only instance with the
	// classic record layout.
	VecCap int
	// Delegate widens the argument ring entries to four words (op, a0, a1,
	// meta) so a vectorized announcement can carry operations *on behalf of
	// other threads*: meta names the originating thread and the parity of its
	// per-thread sequence number, and the combiner credits the response and
	// the deactivate toggle to the originator instead of the announcer. This
	// is the mechanism behind hierarchical combining (a local combiner batches
	// many threads' requests into one announcement) and cross-shard
	// transactions (one thread announces a group of its own legs as a unit).
	// Requires VecCap > 1.
	Delegate bool
}

// DelOp is one delegated operation: an (op, a0, a1) triple to execute, plus
// the originating thread and that thread's per-thread sequence number whose
// low bit drives the originator's activate/deactivate detectability. The
// response lands in the originator's ReturnVal slot, so after a crash the
// originator recovers it through its own Recover — the delegating
// announcement itself needs no durability.
type DelOp struct {
	Op  uint64
	A0  uint64
	A1  uint64
	Tid int
	Seq uint64
}

// DelegateProtocol is satisfied by protocol instances built with
// CombOpts.Delegate: VecProtocol plus the delegating entry point.
type DelegateProtocol interface {
	VecProtocol
	// InvokeDelegated announces dops as one vector under ctid's slot — seq is
	// ctid's own per-announcement sequence number — waits until a combining
	// round has served the whole vector, and copies each operation's response
	// into rets[i]. Each originator's deactivate bit flips to dop.Seq&1 in the
	// same durable round, so its op stays exactly-once recoverable through the
	// ordinary scalar Recover path.
	InvokeDelegated(ctid int, seq uint64, dops []DelOp, rets []uint64)
}

// packDelMeta packs a delegated entry's originating thread and activate
// parity into the ring's meta word.
func packDelMeta(tid int, seq uint64) uint64 { return uint64(tid)<<1 | seq&1 }

// unpackDelMeta splits a meta word into originating thread and parity.
func unpackDelMeta(m uint64) (int, uint64) { return int(m >> 1), m & 1 }

// VecProtocol is satisfied by protocol instances built with CombOpts.VecCap
// > 1: they accept vectorized announcements of up to VecCap operations per
// slot toggle, amortizing the announce handshake and the combining round
// over the whole vector.
type VecProtocol interface {
	Protocol
	// VecCap returns the instance's vector capacity (1 for scalar-only).
	VecCap() int
	// InvokeVec writes ops into tid's persistent argument ring, makes them
	// durable (pwb+pfence), announces them with one slot toggle, waits until
	// a combiner has served the whole vector, and copies the per-op responses
	// into rets[:len(ops)]. seq follows the same per-thread contract as
	// Invoke (one number per announcement, not per op).
	InvokeVec(tid int, ops []VecOp, seq uint64, rets []uint64)
	// RecoverVec is the recovery function for tid's interrupted vector: the
	// caller re-supplies the original ops and seq from its own durable copy
	// (the ring is never trusted), and RecoverVec re-executes the vector or
	// fetches its responses — never both.
	RecoverVec(tid int, ops []VecOp, seq uint64, rets []uint64)
}

// Env is the execution environment a combiner passes to the object while
// serving a batch of requests.
type Env struct {
	// Ctx is the combiner's persistence context. Objects with state outside
	// the StateRec (e.g. linked-list nodes) issue their own pwbs through it;
	// those pwbs are ordered before the protocol's record pwb and covered by
	// the same pfence/psync.
	Ctx *pmem.Ctx
	// State is the working copy of the object state the batch is applied to.
	State State
	// Combiner is the id of the thread acting as combiner.
	Combiner int

	dirty *dirtySet // non-nil for a SparseObject
}

// MarkDirty records that state words [off, off+n) were written. A
// SparseObject MUST call it for every state word it stores; for any other
// object it is a no-op.
func (e *Env) MarkDirty(off, n int) {
	if e.dirty != nil {
		e.dirty.add(off, n)
	}
}

// dirtySet tracks the state cache lines written during combining rounds
// (line indices relative to the state's start, which is line-aligned).
type dirtySet struct {
	mark  []bool
	lines []int
}

func newDirtySet(stWords int) *dirtySet {
	return &dirtySet{mark: make([]bool, (stWords+pmem.LineWords-1)/pmem.LineWords)}
}

func (d *dirtySet) add(off, n int) {
	if n <= 0 {
		return
	}
	lo, hi := off/pmem.LineWords, (off+n-1)/pmem.LineWords
	for l := lo; l <= hi && l < len(d.mark); l++ {
		if !d.mark[l] {
			d.mark[l] = true
			d.lines = append(d.lines, l)
		}
	}
}

// addLine records a single dirty line by index.
func (d *dirtySet) addLine(l int) {
	if l >= 0 && l < len(d.mark) && !d.mark[l] {
		d.mark[l] = true
		d.lines = append(d.lines, l)
	}
}

// has reports whether line l is marked dirty.
func (d *dirtySet) has(l int) bool {
	return l >= 0 && l < len(d.mark) && d.mark[l]
}

func (d *dirtySet) reset() {
	for _, l := range d.lines {
		d.mark[l] = false
	}
	d.lines = d.lines[:0]
}

// Object is a sequential object that the combining protocols make
// recoverable and concurrent. Implementations must touch shared memory only
// through the provided State (and, for out-of-record structures, through
// pmem regions they persist themselves via Env.Ctx).
type Object interface {
	// StateWords returns the fixed size of the object state in words.
	StateWords() int
	// Init establishes the initial state.
	Init(s State)
	// Apply executes one operation against s and fills in r.Ret.
	Apply(env *Env, r *Request)
}

// BatchObject is an optional extension: objects that want to see the whole
// combined batch at once (e.g. to run the paper's elimination optimization
// on concurrent Push/Pop pairs) implement ApplyBatch instead of having
// Apply called per request.
type BatchObject interface {
	Object
	ApplyBatch(env *Env, reqs []Request)
}

// SparseObject is an optional extension: an object that calls Env.MarkDirty
// for every state word it stores implements it, and the protocols then copy
// and persist only the record lines recent rounds wrote instead of the whole
// record. That suits wide states of which a round touches a few lines (a hash
// table shard, a register file). Any other object has its whole record copied
// and persisted with one ranged pwb — the paper's persistence principle 3,
// and the cheaper choice for states of a few lines. An object that implements
// it without marking every store loses those stores in a crash.
type SparseObject interface {
	Object
	MarksDirty()
}

// Reader is an optional extension: an object whose read-only operations can
// be answered from a state alone implements it, and the protocols then serve
// those operations from the last durable record without announcing them (see
// comb.Read). Read must not store, and must be total on arbitrary words: it
// may be handed a record a combiner is overwriting — the protocol discards
// that result, but the probe itself has to stay within s and terminate.
// Apply keeps answering the same op codes: vectors, transaction legs and the
// announced fallback of a read that could not validate still run there.
type Reader interface {
	Read(s State, op, a0, a1 uint64) uint64
}

// Kind selects the combining protocol a structure is built on.
type Kind int

const (
	// Blocking builds on PBcomb.
	Blocking Kind = iota
	// WaitFree builds on PWFcomb.
	WaitFree
)

// Protocol is the interface both combining protocols satisfy; recoverable
// data structures are built against it so each comes in a blocking (PBcomb)
// and a wait-free (PWFcomb) flavor.
type Protocol interface {
	// Invoke announces and executes one operation for thread tid; seq is the
	// per-thread sequence number the system model provides (starts at 1,
	// +1 per invocation).
	Invoke(tid int, op, a0, a1, seq uint64) uint64
	// Recover is the recovery function for tid's interrupted operation,
	// called with the same arguments and seq as the original invocation.
	Recover(tid int, op, a0, a1, seq uint64) uint64
	// Read answers a read-only operation of a Reader object from the last
	// durable record, announcing nothing; ok=false asks the caller to Invoke
	// it instead. Peek is Read for callers that are not a thread of the
	// instance: uncharged, and retried until it validates.
	Read(tid int, op, a0, a1 uint64) (ret uint64, ok bool)
	Peek(op, a0, a1 uint64) uint64
	// CurrentState views the currently valid object state (quiescent use).
	CurrentState() State
	// Ctx returns tid's persistence context.
	Ctx(tid int) *pmem.Ctx
	// Threads returns the number of threads.
	Threads() int
	// Name returns the instance's persistent name.
	Name() string
	// SetProbe installs instrumentation (the zero Probe uninstalls it).
	SetProbe(Probe)
}

// reqSlot is one entry of the volatile Request announcement array. Arguments
// are published before the control word; the control word's atomic store /
// load pair transfers them to the combiner.
type reqSlot struct {
	op  atomic.Uint64
	a0  atomic.Uint64
	a1  atomic.Uint64
	ctl atomic.Uint64
	_   [4]uint64 // pad to a full cache line (8 words total)
}

const (
	ctlActivateBit = 1 << 0
	ctlValidBit    = 1 << 1
	// Bits above ctlCountShift carry the vector length of a vectorized
	// announcement; 0 marks a scalar announcement whose arguments live in
	// the slot itself rather than the argument ring.
	ctlCountShift = 2
)

func packCtl(activate uint64, valid bool) uint64 {
	v := activate & 1
	if valid {
		v |= ctlValidBit
	}
	return v
}

func ctlActivate(ctl uint64) uint64 { return ctl & 1 }
func ctlValid(ctl uint64) bool      { return ctl&ctlValidBit != 0 }

// ctlCount returns the announced vector length, or 0 for a scalar
// announcement.
func ctlCount(ctl uint64) int { return int(ctl >> ctlCountShift) }

// announce publishes a request in the slot.
func (s *reqSlot) announce(op, a0, a1, activate uint64) {
	s.op.Store(op)
	s.a0.Store(a0)
	s.a1.Store(a1)
	s.ctl.Store(packCtl(activate, true))
}

// announceVec publishes a vectorized announcement: the arguments are already
// durable in the thread's ring, so only the control word is written. The
// single atomic store transfers (activate, count) consistently to combiners.
func (s *reqSlot) announceVec(cnt int, activate uint64) {
	s.ctl.Store(packCtl(activate, true) | uint64(cnt)<<ctlCountShift)
}

// initMagic marks a protocol instance's persistent header as initialized.
const initMagic = 0x9b9bc0b1_0001_0001 // arbitrary non-zero tag
