// Package linearizability implements a Wing & Gong-style linearizability
// checker with memoization. The test suites record real histories from the
// combining data structures with internal/history (small windows — the check
// is exponential) and verify them against sequential specifications; the
// paper's Section 8 names such checking as the natural complement to its
// pencil-and-paper arguments.
package linearizability

// Status classifies an operation's fate across a crash cut.
type Status uint8

const (
	// StatusCompleted: the response was observed before the crash; the op
	// must linearize within [Call, Return].
	StatusCompleted Status = iota
	// StatusPending: invoked but interrupted by the crash and never
	// resolved; the op may linearize anywhere after Call (with any
	// response) or vanish entirely.
	StatusPending
	// StatusRecovered: interrupted, then resolved exactly once by a
	// recovery function; the op must linearize after Call with Out equal to
	// the recovered response (its return is unconstrained — effectively the
	// recovery instant).
	StatusRecovered
	// StatusAudit: a post-recovery state observation synthesized by the
	// checker's caller (drain the queue, read every register word). Audit
	// ops linearize after all real ops, in slice order, validating that the
	// final durable state is the model state some legal cut produces.
	StatusAudit
	// StatusVolatile: the response was observed before the crash but the
	// operation belongs to an epoch that never durably closed (epoch-mode
	// relaxed durability). The op may linearize within [Call, Return] with
	// its recorded output — or vanish entirely, exactly the bounded loss
	// window the mode advertises. Completed ops of closed epochs must NOT
	// carry this status: they keep StatusCompleted and may never vanish.
	StatusVolatile
)

// Op is one operation of a recorded history. Call and Return are logical
// timestamps drawn from one global monotone counter, so all are distinct and
// Call < Return for completed operations. Pending/recovered operations have
// no meaningful Return; audit operations need no timestamps at all (the
// checker orders them last).
type Op struct {
	Thread int
	Call   int64
	Return int64
	Kind   uint64 // model-defined operation code
	Arg    uint64
	Arg2   uint64 // second argument (map value, register value); 0 if unused
	Out    uint64
	Status Status
	// Epoch is the operation's epoch label under epoch-mode relaxed
	// durability (0 = strict mode). A history log's Cut(stamp) — the
	// history.Recorder's, the crash tests' Journal's — uses it to downgrade
	// completed ops of never-closed epochs to StatusVolatile.
	Epoch uint64
}

// Model is a sequential specification. States must be encodable to a
// comparable key (for memoization); Step returns the successor state and
// whether the op's recorded output is legal from the given state. For an op
// with StatusPending the recorded output is meaningless — Step must accept
// any output and return the successor the op would produce.
type Model interface {
	Init() interface{}
	Step(state interface{}, op Op) (next interface{}, legal bool)
	Key(state interface{}) string
}

// Check reports whether the history is linearizable with respect to the
// model, using the default work budget. It panics when the budget is
// exhausted — callers that need a graceful diagnostic (large recorded
// histories in CI) use CheckDurable and inspect the Result.
func Check(m Model, history []Op) bool {
	res := CheckDurable(m, history, Opts{})
	if res.Outcome == Exhausted {
		panic("linearizability: work budget exhausted: " + res.Diag)
	}
	return res.Outcome == Ok
}

// CheckOrdered is Check for histories in which a thread has several
// operations outstanding at once — a staged vector, whose operations all
// overlap each other — and the structure promises to apply them in the order
// the thread invoked them (the ring-order promise of the vector API). On top
// of Check's real-time order it requires each thread's operations to
// linearize in Call order. That is the stronger specification, and it is also
// what keeps the search small: without it every permutation of a batch is a
// candidate, and the interleavings of a few overlapping batches can outrun the
// work budget on a history that is in fact linearizable.
func CheckOrdered(m Model, history []Op) bool {
	budget := DefaultBudget
	res := checkOne(m, history, &budget, true)
	if res.Outcome == Exhausted {
		panic("linearizability: work budget exhausted: " + res.Diag)
	}
	return res.Outcome == Ok
}
