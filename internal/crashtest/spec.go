package crashtest

import (
	"fmt"
	"math/rand"

	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
)

// A Spec is everything the crash engines know about one structure: how to
// open it, which operations to throw at it, and the sequential model its
// behaviour is judged against. The fuzz, enumerate and process-kill engines
// all consume the same Spec; the structure itself plays no part in the
// verdict beyond running the operations, answering Recover after a crash,
// and letting State read its durable contents.
//
// A Spec is stateful — its closures share the handle Open last returned — so
// every driver and kill target gets a fresh one.
type Spec struct {
	Name string

	// Open creates — or, after a crash, re-attaches — the structure on h for
	// n threads, through the constructor its users call (so always on a
	// system area), and rebinds the closures below to it.
	Open func(h *pmem.Heap, n int) Handle

	// Ops is the operation table a step draws from, by weight.
	Ops []OpDef

	// VecCap > 1 sends every step through the async path instead: a vector of
	// 1..VecCap operations, staged with Submit and committed by Flush. It is
	// the VecCap the structure was opened with.
	VecCap int

	// Stamp, set on epoch-mode (relaxed durability) specs only, reads the
	// structure's durably closed epoch.
	Stamp func() uint64

	// Kinds maps the structure's op codes to the model's where the two differ.
	Kinds map[uint64]uint64

	// State reads the structure's durable contents in the form Model takes
	// them (quiescent use).
	State func() []uint64

	// Model judges a round: Whole (Tickets, for a counter) or Keyed.
	Model Model

	// Invariant checks what the structure promises about its own layout
	// beyond the model (heap order, a conserved balance sum); nil = nothing.
	Invariant func() error
}

// Handle is what the engines call on an open structure. Every structure has
// these three (sysarea.Front's); Flush is a no-op without staged operations.
type Handle interface {
	Recover(tid int) []sysarea.Resolved
	SetHistory(sysarea.Log)
	Flush(tid int)
}

// OpDef is one row of a Spec's operation table: its weight, and the
// operation in its blocking and its staged (Submit*) form. A row without a
// staged form cannot be drawn by a vectorized spec.
type OpDef struct {
	Weight int
	Do     func(g *gen)
	Submit func(g *gen)
}

// A gen is one thread's seeded source of operations for one round.
type gen struct {
	*rand.Rand
	tid   int
	round uint64
	i, j  int // step within the round, operation within the step
}

func newGen(seed int64, tid int, round uint64) *gen {
	return &gen{Rand: rand.New(rand.NewSource(seed*1000003 + int64(tid))), tid: tid, round: round}
}

// val returns a value no other operation of the campaign draws — the models
// tell lost, duplicated and reordered operations apart by it — and below
// every structure's sentinels.
func (g *gen) val() uint64 {
	return (g.round+1)<<40 | uint64(g.tid+1)<<32 | uint64(g.i+1)<<8 | uint64(g.j+1)
}

// step runs thread g.tid's next step: one blocking operation, or one staged
// vector. A vector re-draws its row only half the time, so same-row runs are
// long enough to fill vectors on the queue, whose two classes flush each
// other.
func (sp *Spec) step(h Handle, g *gen) {
	k := 1
	if sp.VecCap > 1 {
		k += g.Intn(sp.VecCap)
	}
	var op *OpDef
	for g.j = 0; g.j < k; g.j++ {
		if op == nil || g.Intn(2) == 0 {
			op = sp.pick(g)
		}
		if sp.VecCap > 1 {
			op.Submit(g)
		} else {
			op.Do(g)
		}
	}
	h.Flush(g.tid)
}

func (sp *Spec) pick(g *gen) *OpDef {
	total := 0
	for i := range sp.Ops {
		total += sp.Ops[i].Weight
	}
	r := g.Intn(total)
	for i := range sp.Ops {
		if r -= sp.Ops[i].Weight; r < 0 {
			return &sp.Ops[i]
		}
	}
	panic("unreachable")
}

func (sp *Spec) stamp() uint64 {
	if sp.Stamp == nil {
		return 0
	}
	return sp.Stamp()
}

// History reads the round a log recorded, in the model's operation kinds: what
// Audit and Check judge.
func (sp *Spec) History(log interface{ Ops() []lin.Op }) []lin.Op {
	ops := log.Ops()
	for i := range ops {
		if k, ok := sp.Kinds[ops[i].Kind]; ok {
			ops[i].Kind = k
		}
	}
	return ops
}

// Audit is the part of the verdict that runs on every round, whatever its
// size: the structure's own invariant and the model's conservation check over
// the round's History, the contents at round start and the contents now.
func (sp *Spec) Audit(ops []lin.Op, initial, final []uint64) error {
	if sp.Invariant != nil {
		if err := sp.Invariant(); err != nil {
			return err
		}
	}
	return sp.Model.conserve(ops, initial, final)
}

// Check runs the durable-linearizability checker over the round's History plus
// the audit operations the model derives from the final contents. checked is false when
// the check was skipped: the history exceeds o.MaxOps (or on is false) on a
// Whole model, or the step budget ran out.
func (sp *Spec) Check(ops []lin.Op, initial, final []uint64, o DurLinOpts, on bool) (checked bool, err error) {
	if o.Budget <= 0 {
		o.Budget = lin.DefaultBudget
	}
	if o.MaxOps <= 0 {
		o.MaxOps = DefaultDurLinMaxOps
	}
	res, ran := sp.Model.check(ops, initial, final, o, on)
	switch {
	case !ran, res.Outcome == lin.Exhausted:
		return false, nil
	case res.Outcome == lin.Ok:
		return true, nil
	}
	return true, fmt.Errorf("durable-linearizability violation: %w", res.Err())
}

// Model is the sequential specification a Spec's rounds are judged against,
// in one of two shapes: all operations on one state, or a cell each.
type Model interface {
	conserve(ops []lin.Op, initial, final []uint64) error
	check(ops []lin.Op, initial, final []uint64, o DurLinOpts, on bool) (res lin.Result, ran bool)
}

// Whole models a structure whose operations all meet in one state (queue,
// stack, heap). Its linearizability search is exponential in the
// worst case, so the check runs only when asked for and only on rounds of at
// most MaxOps operations; what always runs is conservation: the structure
// holds tokens, every operation puts one in or takes one out, and whatever
// order the operations took effect in, the final contents must be the initial
// ones plus what went in minus what came out.
type Whole struct {
	// New seeds the model with the round-start contents.
	New func(initial []uint64) lin.Model
	// Drain turns the final contents into the audit operations that read
	// them back out through the model, ending on its "empty" response.
	Drain func(final []uint64) []lin.Op
	// Flow names the token op puts in and the one it takes out; the tokens a
	// State holds are its words.
	Flow func(op lin.Op) (put, take Token)
}

// Token is one conserved unit of a Whole model's contents. FromOut marks a
// token read from the operation's response: unknown while the operation is
// pending.
type Token struct {
	V       uint64
	OK      bool
	FromOut bool
}

func (w Whole) check(ops []lin.Op, initial, final []uint64, o DurLinOpts, on bool) (lin.Result, bool) {
	hist := lin.AppendAudits(ops, w.Drain(final)...)
	if !on || len(hist) > o.MaxOps {
		return lin.Result{}, false
	}
	return lin.CheckDurable(w.New(initial), hist, lin.Opts{Budget: o.Budget}), true
}

func (w Whole) conserve(ops []lin.Op, initial, final []uint64) error {
	// Per token: how many the structure holds for certain (net of certain
	// removals), and how many more an operation of unknown fate — pending, or
	// completed in an epoch that never closed — may have put or taken. A
	// pending operation whose token is its lost response can stand for any.
	must, mayPut, mayTake := map[uint64]int{}, map[uint64]int{}, map[uint64]int{}
	anyPut, anyTake := 0, 0
	for _, v := range initial {
		must[v]++
	}
	note := func(op lin.Op, t Token, sign int, may map[uint64]int, any *int) {
		switch {
		case !t.OK:
		case op.Status == lin.StatusCompleted || op.Status == lin.StatusRecovered:
			must[t.V] += sign
		case op.Status == lin.StatusPending && t.FromOut:
			*any++
		default:
			may[t.V]++
		}
	}
	for _, op := range ops {
		put, take := w.Flow(op)
		note(op, put, +1, mayPut, &anyPut)
		note(op, take, -1, mayTake, &anyTake)
	}
	have := map[uint64]int{}
	for _, v := range final {
		have[v]++
		must[v] += 0 // make the loop below visit tokens nobody accounted for
	}
	surplus, deficit := 0, 0
	var extra, lost uint64
	for v, n := range must {
		if hi := n + mayPut[v]; have[v] > hi {
			surplus, extra = surplus+have[v]-hi, v
		}
		if lo := n - mayTake[v]; have[v] < lo {
			deficit, lost = deficit+lo-have[v], v
		}
	}
	if surplus > anyPut {
		return fmt.Errorf("conservation: the structure holds %d tokens no operation put there (%#x for one)", surplus-anyPut, extra)
	}
	if deficit > anyTake {
		return fmt.Errorf("conservation: %d tokens were put, never taken, and are gone (%#x for one)", deficit-anyTake, lost)
	}
	return nil
}

// Tickets is the Whole model of a fetch&add counter, whose one state word
// holds no tokens to count. It is a ticket dispenser instead: an add returns
// the next ticket, so over a round the counter moves from initial to final by
// one per add that took effect — every add that returned, and any of those of
// unknown fate — and the adds that returned hold distinct tickets of that
// span. Arithmetic, so a corrupted counter word costs an error and no memory.
type Tickets struct{ Whole }

func (Tickets) conserve(ops []lin.Op, initial, final []uint64) error {
	lo, hi := initial[0], final[0]
	var done, open uint64
	held := make(map[uint64]bool, len(ops))
	for _, op := range ops {
		if op.Status != lin.StatusCompleted && op.Status != lin.StatusRecovered {
			open++
			continue
		}
		done++
		if op.Out < lo || op.Out >= hi || held[op.Out] {
			return fmt.Errorf("conservation: an add returned ticket %d, which the counter's move from %d to %d did not issue or issued twice", op.Out, lo, hi)
		}
		held[op.Out] = true
	}
	if hi < lo || hi-lo < done || hi-lo > done+open {
		return fmt.Errorf("conservation: the counter went from %d to %d over %d adds that returned and %d of unknown fate", lo, hi, done, open)
	}
	return nil
}

// Keyed models a structure that is a collection of independent cells (map
// keys, register words): State is (key, value) pairs, every operation names
// its cell in Op.Arg, and the history splits into one small sub-history per
// cell. The partitioned check is cheap at any round size, so it always runs
// and is itself the audit of every cell the round touched — each closes on a
// read of its final value. Conservation covers the rest: a cell no operation
// of the round names must read at the end what it read at the start, so a
// recovery that reverts a neighbouring line, drops a key or resurrects one
// fails the round it happens in. An operation of unknown fate excuses only the
// cell it names.
type Keyed struct {
	// New seeds one cell's model with its round-start value, lin.EmptyOut
	// for an absent key.
	New func(initial uint64) lin.Model
	// Read is the model's read kind, for the audit operations.
	Read uint64
}

// cells indexes (key, value) pairs; an absent key reads lin.EmptyOut.
type cells map[uint64]uint64

func cellsOf(pairs []uint64) cells {
	m := make(cells, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

func (c cells) at(key uint64) uint64 {
	if v, ok := c[key]; ok {
		return v
	}
	return lin.EmptyOut
}

func (k Keyed) conserve(ops []lin.Op, initial, final []uint64) error {
	was, is := cellsOf(initial), cellsOf(final)
	touched := make(map[uint64]bool, len(ops))
	for _, op := range ops {
		touched[op.Arg] = true
	}
	for _, side := range []cells{was, is} {
		for key := range side {
			if !touched[key] && was.at(key) != is.at(key) {
				return fmt.Errorf("conservation: cell %#x went from %#x to %#x in a round no operation of which names it",
					key, was.at(key), is.at(key))
			}
		}
	}
	return nil
}

func (k Keyed) check(ops []lin.Op, initial, final []uint64, o DurLinOpts, _ bool) (lin.Result, bool) {
	was, is := cellsOf(initial), cellsOf(final)
	touched := map[uint64]bool{}
	var audits []lin.Op
	for _, op := range ops {
		if !touched[op.Arg] {
			touched[op.Arg] = true
			audits = append(audits, lin.Op{Kind: k.Read, Arg: op.Arg, Out: is.at(op.Arg)})
		}
	}
	return lin.CheckDurablePartitioned(
		func(key uint64) lin.Model { return k.New(was.at(key)) },
		func(op lin.Op) uint64 { return op.Arg },
		lin.AppendAudits(ops, audits...), lin.Opts{Budget: o.Budget}), true
}
