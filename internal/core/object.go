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

import "pcomb/internal/pmem"

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
	vi  int    // index among its announcement's entries of the same Tid
}

// VecIndex returns the request's position among the entries of one
// announcement credited to its Tid (0 for a vector of one — an Invoke).
// BatchObjects that reorder or pair requests across the batch — the stack's
// elimination, say — must preserve the relative order of requests sharing a
// Tid, because a vector's ops carry the announcing thread's program order.
func (r *Request) VecIndex() int { return r.vi }

// VecOp is one operation of an announcement (see InvokeVec): up to VecCap of
// them are written into the announcing thread's volatile announcement block
// and served with a single activate toggle.
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
	// announcement, and the width of its ReturnVal block; 0 and 1 both mean
	// one, the paper's record layout.
	VecCap int
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

// packDelMeta packs an announcement entry's originating thread and activate
// parity into the entry's meta word.
func packDelMeta(tid int, seq uint64) uint64 { return uint64(tid)<<1 | seq&1 }

// unpackDelMeta splits a meta word into originating thread and parity.
func unpackDelMeta(m uint64) (int, uint64) { return int(m >> 1), m & 1 }

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
	// +1 per invocation). It is InvokeVec with a vector of one.
	Invoke(tid int, op, a0, a1, seq uint64) uint64
	// InvokeVec writes ops into tid's announcement block, announces them
	// with one activate toggle, waits until a combiner has served the whole
	// vector, and copies the per-op responses into rets[:len(ops)]. It
	// persists nothing beyond the serving round's own record. seq follows the
	// same per-thread contract as Invoke (one number per announcement, not per
	// op).
	InvokeVec(tid int, ops []VecOp, seq uint64, rets []uint64)
	// InvokeDelegated announces dops as one vector under tid's block, waits
	// until a combining round has served the whole vector, and copies each
	// operation's response into rets[i]. One dop must be tid's own: its Seq
	// is the announcement's activate bit, and a vector without one panics.
	// Each originator's deactivate bit flips to dop.Seq&1 in the same
	// durable round, so its op stays exactly-once recoverable through the
	// originator's own Recover. InvokeVec is InvokeDelegated with every
	// originator equal to tid.
	InvokeDelegated(tid int, dops []DelOp, rets []uint64)
	// RecoverVec is the recovery function for tid's interrupted vector: the
	// caller re-supplies the original ops and seq from its own durable copy
	// (the announcement block is volatile), and RecoverVec re-executes the
	// vector or fetches its responses — never both.
	RecoverVec(tid int, ops []VecOp, seq uint64, rets []uint64)
	// Read answers a read-only operation of a Reader object from the last
	// durable record, announcing nothing; ok=false asks the caller to Invoke
	// it instead. Peek is Read for callers that are not a thread of the
	// instance: uncharged, and retried until it validates.
	Read(tid int, op, a0, a1 uint64) (ret uint64, ok bool)
	Peek(op, a0, a1 uint64) uint64
	// DeactParity returns tid's deactivate bit in the current record, which
	// epoch-mode recovery compares with an in-flight sequence number.
	DeactParity(tid int) uint64
	// SetCommit installs the hook that commits a round's side effects (nil
	// uninstalls it); see comb.commit for when it runs.
	SetCommit(f func(env *Env, won bool))
	// CurrentState views the currently valid object state (quiescent use).
	CurrentState() State
	// SetProbe installs instrumentation (the zero Probe uninstalls it).
	SetProbe(Probe)
}

// An announcement block's control word: the activate bit, the valid bit, and
// above ctlCountShift the number of entries announced.
const (
	ctlValidBit   = 1 << 1
	ctlCountShift = 2
)

func packCtl(activate uint64, cnt int) uint64 {
	return activate&1 | ctlValidBit | uint64(cnt)<<ctlCountShift
}

func ctlActivate(ctl uint64) uint64 { return ctl & 1 }
func ctlValid(ctl uint64) bool      { return ctl&ctlValidBit != 0 }
func ctlCount(ctl uint64) int       { return int(ctl >> ctlCountShift) }

// initMagic marks a protocol instance's persistent header as initialized.
const initMagic = 0x9b9bc0b1_0001_0001 // arbitrary non-zero tag
