package crashtest

import (
	"testing"

	"pcomb"
	"pcomb/internal/core"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
)

// These mutation tests validate the verification harness itself: a
// deliberately broken configuration must be CAUGHT by the same checks the
// real algorithms pass. A checker that never fails anything proves nothing.

// TestMissingPsyncBreaksDurability is the paper's own Gedankenexperiment
// ("assume now that the psync of line 32 is missing...") made executable:
// with psync turned into a NOP, the MIndex write-back is never drained, so
// a DropUnfenced crash rolls the object back past operations that already
// returned — a durable-linearizability violation our checkers detect.
func TestMissingPsyncBreaksDurability(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true, PsyncOff: true})
	c := core.NewPBComb(h, "mp", 1, core.Counter{})
	const ops = 5
	for i := uint64(1); i <= ops; i++ {
		c.Invoke(0, core.OpCounterAdd, 1, 0, i)
	}
	h.Crash(pmem.DropUnfenced, 1)
	c2 := core.NewPBComb(h, "mp", 1, core.Counter{})
	got := c2.CurrentState().Load(0)
	if got == ops {
		t.Fatalf("psync-free protocol recovered all %d ops: the mutation test is vacuous "+
			"(the durability checker could never fire)", ops)
	}
	t.Logf("recovered %d of %d completed ops without psync — violation visible to the checkers", got, ops)
}

// TestSabotagedMIndexIsVisible emulates the missing-pfence bug of Section 3
// (pwb(MIndex) overtaking pwb(record)) by flipping the durable MIndex to
// the record whose contents were never persisted, and shows the corruption
// is observable after recovery.
func TestSabotagedMIndexIsVisible(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
	c := core.NewPBComb(h, "bc", 1, core.Counter{})
	for i := uint64(1); i <= 3; i++ {
		c.Invoke(0, core.OpCounterAdd, 1, 0, i)
	}
	meta := h.Region("bc/pbcomb.meta")
	meta.DirectStore(0, 1-meta.Load(0))
	h.Crash(pmem.DropUnfenced, 1)
	c2 := core.NewPBComb(h, "bc", 1, core.Counter{})
	if got := c2.CurrentState().Load(0); got == 3 {
		t.Fatal("sabotage had no effect; MIndex does not actually select the valid record?")
	}
}

// TestSeqParityMisuseIsBenignlyIdempotent documents why the seq contract
// matters: reusing a sequence number of the same parity makes the protocol
// treat the announcement as already served (the detectability mechanism
// working as designed), so the op is NOT applied twice. The system area in
// the public API exists to make such reuse impossible.
func TestSeqParityMisuseIsBenignlyIdempotent(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
	c := core.NewPBComb(h, "sp", 1, core.Counter{})
	c.Invoke(0, core.OpCounterAdd, 1, 0, 1)
	c.Invoke(0, core.OpCounterAdd, 1, 0, 2)
	c.Invoke(0, core.OpCounterAdd, 1, 0, 2) // same parity: treated as served
	if got := c.CurrentState().Load(0); got != 2 {
		t.Fatalf("counter = %d; same-parity reuse must not re-apply", got)
	}
}

// TestMutationEpochSabotageIsKilled validates the epoch-aware checker the
// same way SetRecoverSabotage validates strict recovery: with the close pass
// sabotaged (the durable stamp advances but the accumulated write-backs are
// never persisted), operations of "closed" epochs silently lose their
// effects across a crash. Closed-epoch completions keep StatusCompleted —
// they may NOT vanish — so the crash-cut checker must kill the mutant. The
// identical clean campaign must pass.
func TestMutationEpochSabotageIsKilled(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 24, Rounds: 6, Seed: 17, DurLin: true}
	mk := matrixTarget(t, cfg, "queue/PBqueue-epoch").Mk
	if _, fail := Fuzz(mk, cfg); fail != nil {
		t.Fatalf("clean control campaign failed: %v", fail.ErrOrNil())
	}
	pmem.SetEpochSabotage(true)
	defer pmem.SetEpochSabotage(false)
	killed := false
	for seed := int64(17); seed < 27; seed++ {
		cfg.Seed = seed
		if _, fail := Fuzz(mk, cfg); fail != nil {
			killed = true
			break
		}
	}
	if !killed {
		t.Fatal("sabotaged epoch close never detected (mutant survived)")
	}
}

// TestAdversariesDiffer shows the crash policies genuinely disagree about
// the same pending write-back, so fuzzing across all of them adds coverage.
func TestAdversariesDiffer(t *testing.T) {
	outcomes := map[pmem.CrashPolicy]uint64{}
	for _, pol := range []pmem.CrashPolicy{pmem.DropUnfenced, pmem.ApplyAll} {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
		r := h.Alloc("a", 8)
		c := h.NewCtx()
		r.Store(0, 9)
		c.PWB(r, 0, 1) // scheduled, never fenced
		h.Crash(pol, 1)
		outcomes[pol] = r.Load(0)
	}
	if outcomes[pmem.DropUnfenced] != 0 || outcomes[pmem.ApplyAll] != 9 {
		t.Fatalf("adversaries indistinguishable: %v", outcomes)
	}
}

// wrongSpecs are deliberately wrong Specs of correct structures, each beside
// the right one: a queue judged as a stack, a map whose State forgets one key,
// and a map one of whose idle cells changes under it. They validate the part
// of the verdict a Spec supplies and the audit judges it by — if the engines
// pass these, a wrong model or a damaged bystander cell would go unnoticed.
var wrongSpecs = []struct {
	name         string
	right, wrong func() *Spec
}{
	{"queue-as-LIFO",
		func() *Spec { return queueSpec(pcomb.Blocking, pcomb.QueueOptions{Capacity: killArena}) },
		func() *Spec {
			sp := queueSpec(pcomb.Blocking, pcomb.QueueOptions{Capacity: killArena})
			m := sp.Model.(Whole)
			m.New = func(init []uint64) lin.Model { return lin.StackModel{Initial: init} }
			sp.Model = m
			return sp
		}},
	{"map-audit-drops-a-key",
		func() *Spec { return mapSpec(pcomb.WaitFree, pcomb.MapOptions{}) },
		func() *Spec {
			sp := mapSpec(pcomb.WaitFree, pcomb.MapOptions{})
			state := sp.State
			sp.State = func() []uint64 {
				if st := state(); len(st) > 2 {
					return st[2:]
				}
				return nil
			}
			return sp
		}},
	// A cell no operation ever names, whose value follows the rest of the
	// contents: what a recovery that damages a neighbour of the cells in play
	// looks like to the audit. Only conservation can see it — the partitioned
	// check reads back the cells the round touched and no others.
	{"map-untouched-cell-flips",
		func() *Spec { return mapSpec(pcomb.WaitFree, pcomb.MapOptions{}) },
		func() *Spec {
			sp := mapSpec(pcomb.WaitFree, pcomb.MapOptions{})
			state := sp.State
			sp.State = func() []uint64 {
				st, sum := state(), uint64(0)
				for _, w := range st {
					sum += w
				}
				return append(st, 1<<40, sum&0xffff)
			}
			return sp
		}},
}

// TestMutationWrongSpecFails: both simulated-crash engines fail the wrong
// Specs on the very campaigns the right ones pass (the kill engine's turn is
// TestKillWrongSpecFails).
func TestMutationWrongSpecFails(t *testing.T) {
	for _, ws := range wrongSpecs {
		t.Run(ws.name, func(t *testing.T) {
			fuzz := Config{Threads: 3, Ops: 14, Rounds: 4, Seed: 7, DurLin: true, DurLinMaxOps: 320}
			enum := Config{Threads: 2, Ops: 8, Seed: 9, Budget: 32, DurLin: true, DurLinMaxOps: 320}
			if _, fail := Fuzz(specDriver(3, ws.right), fuzz); fail != nil {
				t.Fatalf("right spec failed fuzz: %v", fail.ErrOrNil())
			}
			if _, fail := Fuzz(specDriver(3, ws.wrong), fuzz); fail == nil {
				t.Fatal("wrong spec passed fuzz")
			}
			if _, fail := Enumerate(specDriver(2, ws.right), enum); fail != nil {
				t.Fatalf("right spec failed enumerate: %v", fail.ErrOrNil())
			}
			if _, fail := Enumerate(specDriver(2, ws.wrong), enum); fail == nil {
				t.Fatal("wrong spec passed enumerate")
			}
		})
	}
}
