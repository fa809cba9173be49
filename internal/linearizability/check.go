package linearizability

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// infTS is a timestamp beyond every effective return, used as the minReturn
// sentinel.
const infTS = int64(1) << 62

// DefaultBudget bounds the DFS work (Step attempts) of one CheckDurable call
// when Opts.Budget is zero. Histories that genuinely need more work than
// this are too large for exhaustive checking in CI; the caller gets an
// Exhausted result with a diagnostic instead of a hang.
const DefaultBudget = int64(1) << 22

// Opts parameterizes CheckDurable.
type Opts struct {
	// Budget caps DFS step attempts across all partitions (0 = DefaultBudget).
	Budget int64
}

// Outcome is the verdict of a bounded check.
type Outcome uint8

const (
	// Ok: a legal linearization (and crash cut) exists.
	Ok Outcome = iota
	// Violation: no legal linearization exists — a durable-linearizability
	// violation.
	Violation
	// Exhausted: the work budget ran out before the search settled. Not a
	// verdict; rerun with a bigger budget or a smaller history.
	Exhausted
)

func (o Outcome) String() string {
	switch o {
	case Ok:
		return "ok"
	case Violation:
		return "violation"
	case Exhausted:
		return "exhausted"
	}
	return "unknown"
}

// Result reports a bounded check's verdict and its cost.
type Result struct {
	Outcome    Outcome
	Ops        int    // operations checked (all partitions)
	Steps      int64  // Step attempts consumed
	Partitions int    // independence classes checked (1 when unpartitioned)
	Diag       string // human-readable context for Violation/Exhausted
}

// Err flattens the result into an error (nil on Ok).
func (r Result) Err() error {
	switch r.Outcome {
	case Ok:
		return nil
	case Exhausted:
		return fmt.Errorf("linearizability: budget exhausted after %d steps (%d ops): %s",
			r.Steps, r.Ops, r.Diag)
	}
	return fmt.Errorf("linearizability: history not durably linearizable (%d ops, %d steps): %s",
		r.Ops, r.Steps, r.Diag)
}

// CheckDurable checks a crash-cut history against the model within a work
// budget. The semantics per Op.Status: completed ops linearize within their
// recorded interval; recovered ops linearize exactly once, anywhere after
// their invocation, with the recovered output; pending ops may linearize
// (with any output) or vanish; audit ops linearize after everything else, in
// slice order, pinning the final state.
func CheckDurable(m Model, history []Op, o Opts) Result {
	budget := o.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	res := checkOne(m, history, &budget, false)
	res.Partitions = 1
	return res
}

// CheckDurablePartitioned decomposes the history into independence classes
// (part maps each op to its class — a map key, a register word), checks each
// class against its own model (mk), and combines the verdicts. Sound only
// when classes are semantically independent: an operation of one class must
// never observe another class's state. The budget is shared across classes,
// so the whole call does bounded work regardless of history size.
func CheckDurablePartitioned(mk func(class uint64) Model, part func(Op) uint64, history []Op, o Opts) Result {
	budget := o.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}
	byClass := map[uint64][]Op{}
	var classes []uint64
	for _, op := range history {
		c := part(op)
		if _, seen := byClass[c]; !seen {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], op)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	total := Result{Outcome: Ok}
	for _, c := range classes {
		sub := checkOne(mk(c), byClass[c], &budget, false)
		total.Ops += sub.Ops
		total.Steps += sub.Steps
		total.Partitions++
		if sub.Outcome != Ok {
			total.Outcome = sub.Outcome
			total.Diag = fmt.Sprintf("class %#x: %s", c, sub.Diag)
			return total
		}
	}
	return total
}

// checkOne runs the bounded Wing & Gong search on one (sub-)history,
// consuming from the shared budget. With ordered set, an op is a candidate
// only once every earlier-Call op of its thread has been placed (see
// CheckOrdered).
func checkOne(m Model, history []Op, budget *int64, ordered bool) Result {
	n := len(history)
	res := Result{Ops: n}
	if n == 0 {
		return res
	}

	// Normalize timestamps. Pending/recovered ops return just past every real
	// timestamp: unconstrained relative to real ops, but settled before the
	// post-recovery audit observations (recovery is quiescent — nothing real
	// linearizes after an audit). Audit ops then follow, in slice order.
	ops := make([]Op, n)
	copy(ops, history)
	maxTS := int64(0)
	for _, op := range ops {
		if op.Status == StatusAudit {
			continue
		}
		if op.Call > maxTS {
			maxTS = op.Call
		}
		if (op.Status == StatusCompleted || op.Status == StatusVolatile) && op.Return > maxTS {
			maxTS = op.Return
		}
	}
	auditTS := maxTS + 1
	for i := range ops {
		switch ops[i].Status {
		case StatusPending, StatusRecovered:
			ops[i].Return = maxTS + 1
		case StatusAudit:
			ops[i].Call = auditTS + 1
			ops[i].Return = auditTS + 2
			auditTS += 2
		}
	}

	// pred[i] is the op of i's thread with the next smaller Call (-1: none);
	// requiring it placed first chains to all earlier ones.
	var pred []int
	if ordered {
		pred = make([]int, n)
		for i := range ops {
			pred[i] = -1
			for j := range ops {
				if ops[j].Thread == ops[i].Thread && ops[j].Call < ops[i].Call &&
					(pred[i] < 0 || ops[j].Call > ops[pred[i]].Call) {
					pred[i] = j
				}
			}
		}
	}

	words := (n + 63) / 64
	full := make([]uint64, words)
	for i := 0; i < n; i++ {
		full[i/64] |= 1 << (i % 64)
	}
	keyBuf := make([]byte, 8*words)
	stateKey := func(remaining []uint64, state interface{}) string {
		for w, v := range remaining {
			binary.LittleEndian.PutUint64(keyBuf[8*w:], v)
		}
		return string(keyBuf) + m.Key(state)
	}

	// memo holds states proven NOT linearizable-from (success returns
	// immediately, so only failures are worth remembering).
	memo := map[string]struct{}{}
	// Violation diagnostics: the frontier of the deepest search point.
	bestLeft := n + 1
	bestDiag := ""

	exhausted := false
	var dfs func(remaining []uint64, left int, state interface{}) bool
	dfs = func(remaining []uint64, left int, state interface{}) bool {
		if left == 0 {
			return true
		}
		key := stateKey(remaining, state)
		if _, failed := memo[key]; failed {
			return false
		}
		minReturn := infTS
		for i := 0; i < n; i++ {
			if remaining[i/64]&(1<<(i%64)) != 0 && ops[i].Return < minReturn {
				minReturn = ops[i].Return
			}
		}
		for i := 0; i < n; i++ {
			if remaining[i/64]&(1<<(i%64)) == 0 {
				continue
			}
			if ops[i].Call > minReturn {
				continue // some other op completed strictly before this began
			}
			if ordered && pred[i] >= 0 && remaining[pred[i]/64]&(1<<(pred[i]%64)) != 0 {
				continue // its thread invoked an op before this one that is not placed yet
			}
			if *budget <= 0 {
				exhausted = true
				return false
			}
			*budget--
			res.Steps++
			sub := make([]uint64, words)
			copy(sub, remaining)
			sub[i/64] &^= 1 << (i % 64)
			if next, legal := m.Step(state, ops[i]); legal && dfs(sub, left-1, next) {
				return true
			}
			if exhausted {
				return false
			}
			// A pending op may also vanish: drop it with no state change. So
			// may a volatile one (completed inside an epoch that never
			// durably closed) — but unlike pending ops, when it does
			// linearize its recorded output already constrained Step above.
			if (ops[i].Status == StatusPending || ops[i].Status == StatusVolatile) && dfs(sub, left-1, state) {
				return true
			}
			if exhausted {
				return false
			}
		}
		if left < bestLeft {
			bestLeft = left
			bestDiag = frontier(ops, remaining, n)
		}
		memo[key] = struct{}{}
		return false
	}

	switch {
	case dfs(full, n, m.Init()):
		res.Outcome = Ok
	case exhausted:
		res.Outcome = Exhausted
		res.Diag = fmt.Sprintf("search frontier %s", frontier(ops, full, n))
	default:
		res.Outcome = Violation
		res.Diag = fmt.Sprintf("stuck with %d ops unplaceable; frontier %s", bestLeft, bestDiag)
	}
	return res
}

// frontier renders up to four remaining ops for diagnostics.
func frontier(ops []Op, remaining []uint64, n int) string {
	out := ""
	shown := 0
	for i := 0; i < n && shown < 4; i++ {
		if remaining[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		if shown > 0 {
			out += " "
		}
		out += fmt.Sprintf("{t%d k%d a%#x->%#x s%d}",
			ops[i].Thread, ops[i].Kind, ops[i].Arg, ops[i].Out, ops[i].Status)
		shown++
	}
	if shown < popcount(remaining) {
		out += fmt.Sprintf(" +%d more", popcount(remaining)-shown)
	}
	return out
}

func popcount(bs []uint64) int {
	c := 0
	for _, w := range bs {
		for ; w != 0; w &= w - 1 {
			c++
		}
	}
	return c
}

// AppendAudits appends audit operations to a history, marking them
// StatusAudit (the checker orders them after every real op, in the order
// given). Use it to pin the recovered final state: a drained queue residue,
// every register word's durable value.
func AppendAudits(history []Op, audits ...Op) []Op {
	for _, a := range audits {
		a.Status = StatusAudit
		history = append(history, a)
	}
	return history
}
