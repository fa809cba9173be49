package crashtest

import (
	"strings"
	"testing"

	"pcomb"
	"pcomb/internal/core"
	"pcomb/internal/history"
	"pcomb/internal/pmem"
)

// TestMatrixTargetNames pins the matrix shape: every {protocol} x
// {scalar,vec} combination of every structure is present exactly once under a
// stable name.
func TestMatrixTargetNames(t *testing.T) {
	targets := MatrixTargets(Config{Threads: 2})
	seen := map[string]bool{}
	for _, tg := range targets {
		if seen[tg.Name] {
			t.Fatalf("duplicate target name %q", tg.Name)
		}
		seen[tg.Name] = true
		if got := tg.Mk(1).Name(); got != tg.Name {
			t.Fatalf("target %q builds driver named %q", tg.Name, got)
		}
	}
	// 2 counters + 4 each for queue/stack/heap/map/register + 2 epoch queues
	// + 2 epoch maps + 2 fabrics.
	if len(targets) != 28 {
		t.Fatalf("matrix has %d targets, want 28", len(targets))
	}
	for _, want := range []string{
		"counter/PWFcomb",
		"queue/PBqueue", "queue/PWFqueue-vec",
		"queue/PBqueue-epoch", "queue/PWFqueue-epoch",
		"map/PBmap-epoch", "map/PWFmap-epoch",
		"stack/PBstack-vec", "stack/PWFstack",
		"heap/PBheap", "heap/PWFheap-vec",
		"map/PBmap-vec", "map/PWFmap",
		"register/PBsparse", "register/PWFsparse",
		"register/PBbatch", "register/PWFbatch",
		"fabric/PBfabric", "fabric/PWFfabric",
	} {
		if !seen[want] {
			t.Fatalf("matrix is missing target %q", want)
		}
	}
	// Sparse or dense is the object's to say: the queue, stack and heap are
	// dense, the map and register file sparse, and no variant of the other
	// mode may come back.
	for _, gone := range []string{
		"queue/PWFqueue-sparse-vec", "stack/PWFstack-sparse",
		"map/PWFmap-dense", "heap/PBheap-sparse", "register/PBdense", "register/PWFbatch-dense",
	} {
		if seen[gone] {
			t.Fatalf("matrix has removed target %q", gone)
		}
	}
}

// TestRecoverAndDurLinMatrix sweeps the full structure x protocol x variant
// matrix under crash fuzzing with durable-linearizability checking: every
// round's recorded history (completed, pending, and recovered operations
// plus a post-recovery state audit) must admit a legal crash-cut
// linearization.
func TestRecoverAndDurLinMatrix(t *testing.T) {
	recovered := 0
	cfg := Config{
		Threads: 3, Ops: 14, Rounds: 2, Seed: 7,
		DurLin: true, DurLinMaxOps: 320,
	}
	for _, tg := range MatrixTargets(cfg) {
		tg := tg
		t.Run(strings.ReplaceAll(tg.Name, "/", "_"), func(t *testing.T) {
			rep, fail := Fuzz(tg.Mk, cfg)
			if fail != nil {
				t.Fatalf("%s: %v (replay %s)", tg.Name, fail.Err, fail.Spec.Token())
			}
			if rep.HistChecked+rep.HistSkipped != cfg.Rounds {
				t.Fatalf("%s: %d histories checked + %d skipped, want %d rounds",
					tg.Name, rep.HistChecked, rep.HistSkipped, cfg.Rounds)
			}
			if rep.HistChecked == 0 {
				t.Fatalf("%s: every round's history check was skipped", tg.Name)
			}
			recovered += rep.Recovered
		})
	}
	// The matrix as a whole must actually exercise recovery paths; individual
	// targets may crash at quiescent points on any given seed.
	t.Cleanup(func() {
		if !t.Failed() && recovered == 0 {
			t.Errorf("no interrupted operation was ever recovered across the matrix")
		}
	})
}

// TestDurLinEnumerate runs systematic crash-point enumeration with the
// durable-linearizability checker on representative scalar and batched
// targets of every structure.
func TestDurLinEnumerate(t *testing.T) {
	for _, name := range []string{
		"counter/PBcomb",
		"queue/PWFqueue",
		"queue/PBqueue-vec",
		"stack/PBstack",
		"heap/PWFheap-vec",
		"map/PBmap-vec",
		"map/PWFmap",
		"register/PWFbatch",
		"queue/PBqueue-epoch",
		"map/PWFmap-epoch",
	} {
		cfg := Config{
			Threads: 2, Ops: 6, Seed: 9, Budget: 48,
			DurLin: true, DurLinMaxOps: 320,
		}
		tg := matrixTarget(t, cfg, name)
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			rep, fail := Enumerate(tg.Mk, cfg)
			if fail != nil {
				t.Fatalf("%s: %v (replay %s)", name, fail.Err, fail.Spec.Token())
			}
			if rep.HistChecked == 0 {
				t.Fatalf("%s: enumeration never completed a history check (skipped %d)",
					name, rep.HistSkipped)
			}
		})
	}
}

// TestDurLinMapEpochWindow fuzzes the map variant the matrix leaves out —
// epoch mode with the async flush window — under the durable-linearizability
// checker: a crash can drop a window's round with the epoch while its record
// stays open, and recovery must take the window's ops from the record's
// payload (the announcement block is volatile) and settle each op exactly once.
func TestDurLinMapEpochWindow(t *testing.T) {
	for _, kind := range []pcomb.Kind{pcomb.Blocking, pcomb.WaitFree} {
		sp := func() *Spec { return mapSpec(kind, pcomb.MapOptions{Epoch: true, VecCap: specVecCap}) }
		t.Run(sp().Name, func(t *testing.T) {
			cfg := Config{Threads: 3, Ops: 14, Rounds: 4, DurLin: true, DurLinMaxOps: 320}
			recovered := 0
			for cfg.Seed = 1; cfg.Seed <= 6; cfg.Seed++ {
				rep, fail := Fuzz(specDriver(cfg.Threads, sp), cfg)
				if fail != nil {
					t.Fatalf("seed %d: %v (replay %s)", cfg.Seed, fail.Err, fail.Spec.Token())
				}
				if rep.HistChecked == 0 {
					t.Fatalf("seed %d: every round's history check was skipped", cfg.Seed)
				}
				recovered += rep.Recovered
			}
			if recovered == 0 {
				t.Fatal("no interrupted operation was ever recovered")
			}
		})
	}
}

// TestMutationCheckerCatchesSabotagedRecovery is the checker's mutation
// test: a seeded recovery bug (core.SetRecoverSabotage skips the
// republish/re-announce/re-perform of Recover and hands back a stale return
// slot) must surface as a durable-linearizability violation — the recovered
// enqueue's effect vanished even though its history entry says it resolved
// exactly once. The clean control run of the identical schedule must pass.
func TestMutationCheckerCatchesSabotagedRecovery(t *testing.T) {
	for _, kind := range []pcomb.Kind{pcomb.Blocking, pcomb.WaitFree} {
		for _, sabotage := range []bool{false, true} {
			sp := queueSpec(kind, pcomb.QueueOptions{Capacity: 4 * poolChunk})
			heap := newShadowHeap()
			rec := history.New(1)
			sp.Open(heap, 1).SetHistory(rec)
			enqueue, g := sp.Ops[0].Do, newGen(1, 0, 0)
			enqueue(g)

			// Crash at the very next persistence event: inside the second
			// enqueue's argument publish, before it can take effect.
			heap.SetCrashAtEvent(1)
			g.i++
			if !unwound(func() { enqueue(g) }) {
				t.Fatal("second enqueue did not crash")
			}
			heap.FinishCrash(pmem.DropUnfenced, 1)

			h := sp.Open(heap, 1)
			h.SetHistory(rec)
			rec.Cut(0)
			core.SetRecoverSabotage(sabotage)
			resolved := h.Recover(0)
			core.SetRecoverSabotage(false)
			if len(resolved) != 1 || resolved[0].Op != pcomb.OpEnqueue {
				t.Fatalf("kind %v: Recover resolved %+v, want the one enqueue", kind, resolved)
			}

			checked, err := sp.Check(sp.History(rec), nil, sp.State(), DurLinOpts{}, true)
			if !checked {
				t.Fatalf("kind %v: two-op history not checked", kind)
			}
			if sabotage && err == nil {
				t.Fatalf("kind %v: sabotaged recovery not flagged", kind)
			}
			if !sabotage && err != nil {
				t.Fatalf("kind %v: clean control run flagged: %v", kind, err)
			}
		}
	}
}

// TestMutationSabotagedCampaignsFail runs whole campaigns under the seeded
// recovery bug, on the fuzz and on the enumerate engine: across the scalar
// and batched register targets the harness must kill the mutant — a sabotaged
// seed that resolved an operation through recovery and still passed is a
// failure on the spot, not a seed to skip — and the identical clean campaigns
// must pass.
func TestMutationSabotagedCampaignsFail(t *testing.T) {
	for _, name := range []string{"register/PBsparse", "register/PWFbatch"} {
		fuzz := Config{Threads: 2, Ops: 40, Rounds: 6, Seed: 13, DurLin: true}
		enum := Config{Threads: 2, Ops: 6, Seed: 13, Budget: 48, DurLin: true}
		tg := matrixTarget(t, fuzz, name)
		t.Run(strings.ReplaceAll(tg.Name, "/", "_"), func(t *testing.T) {
			if _, fail := Fuzz(tg.Mk, fuzz); fail != nil {
				t.Fatalf("clean control fuzz campaign failed: %v", fail.Err)
			}
			if _, fail := Enumerate(tg.Mk, enum); fail != nil {
				t.Fatalf("clean control enumeration failed: %v", fail.Err)
			}
			core.SetRecoverSabotage(true)
			defer core.SetRecoverSabotage(false)
			killed := false
			for seed := int64(13); seed < 23 && !killed; seed++ {
				fuzz.Seed = seed
				rep, fail := Fuzz(tg.Mk, fuzz)
				killed = fail != nil
				if !killed && rep.Recovered > 0 {
					t.Fatalf("seed %d: recovery ran under sabotage yet no check failed", seed)
				}
			}
			if !killed {
				t.Fatal("sabotaged recovery never detected by fuzz (mutant survived)")
			}
			if _, fail := Enumerate(tg.Mk, enum); fail == nil {
				t.Fatal("sabotaged recovery not detected by enumerate (mutant survived)")
			}
		})
	}
}
