package core

import "math"

// Operation codes for the built-in objects.
const (
	// OpAtomicFloatMul multiplies the value by float64frombits(A0) and
	// returns the bits of the value read (the paper's AtomicFloat(O, k)).
	OpAtomicFloatMul uint64 = iota + 1
	// OpCounterAdd adds A0 to the counter and returns the previous value.
	OpCounterAdd
	// OpCounterGet returns the counter value.
	OpCounterGet
	// OpRegRead returns word A0 of the register file.
	OpRegRead
	// OpRegWrite writes A1 into word A0 and returns the previous value.
	OpRegWrite
	// OpRegTransfer moves one unit from word A0 to word A1 and returns the
	// remaining balance of A0 (the bank-transfer example).
	OpRegTransfer
)

// AtomicFloat is the paper's synthetic benchmark object: a single float64
// updated by read-multiply-write operations, which must appear atomic.
type AtomicFloat struct{ Initial float64 }

// StateWords returns 1: the float's bits.
func (AtomicFloat) StateWords() int { return 1 }

// Init stores the initial value.
func (a AtomicFloat) Init(s State) { s.Store(0, math.Float64bits(a.Initial)) }

// Apply executes OpAtomicFloatMul: read v, write v*k, return the bits of v.
func (AtomicFloat) Apply(env *Env, r *Request) {
	old := env.State.Load(0)
	k := math.Float64frombits(r.A0)
	env.State.Store(0, math.Float64bits(math.Float64frombits(old)*k))
	r.Ret = old
}

// Counter is a recoverable fetch&add counter.
type Counter struct{ Initial uint64 }

// StateWords returns 1.
func (Counter) StateWords() int { return 1 }

// Init stores the initial value.
func (c Counter) Init(s State) { s.Store(0, c.Initial) }

// Apply executes OpCounterAdd / OpCounterGet.
func (Counter) Apply(env *Env, r *Request) {
	old := env.State.Load(0)
	switch r.Op {
	case OpCounterAdd:
		env.State.Store(0, old+r.A0)
	case OpCounterGet:
	}
	r.Ret = old
}

// RegisterFile is an array of words supporting read/write/transfer; it
// stands in for "any object" in tests and the bank-transfer example. It marks
// every store, so the protocols persist it sparsely (SparseObject).
type RegisterFile struct {
	Words   int
	Initial uint64
}

// MarksDirty makes RegisterFile a SparseObject.
func (RegisterFile) MarksDirty() {}

// StateWords returns the configured size.
func (f RegisterFile) StateWords() int { return f.Words }

// Init fills every word with the initial value.
func (f RegisterFile) Init(s State) {
	for i := 0; i < f.Words; i++ {
		s.Store(i, f.Initial)
	}
}

// Apply executes the register-file operations.
func (f RegisterFile) Apply(env *Env, r *Request) {
	switch r.Op {
	case OpRegRead:
		r.Ret = env.State.Load(int(r.A0))
	case OpRegWrite:
		r.Ret = env.State.Load(int(r.A0))
		env.State.Store(int(r.A0), r.A1)
		env.MarkDirty(int(r.A0), 1)
	case OpRegTransfer:
		from, to := int(r.A0), int(r.A1)
		bf := env.State.Load(from)
		if bf > 0 {
			env.State.Store(from, bf-1)
			env.State.Store(to, env.State.Load(to)+1)
			env.MarkDirty(from, 1)
			env.MarkDirty(to, 1)
		}
		r.Ret = env.State.Load(from)
	default:
		r.Ret = ^uint64(0)
	}
}
