package crashtest

import (
	"fmt"
	"strings"
	"testing"

	"pcomb"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// enumTargets is every structure on both protocols in its default variant,
// plus the register targets: the sparse ones (a wide multi-line state whose
// persists go through the merged dirty sets, so enumeration crashes inside the
// delta persist itself) and the vectorized ones (every step announces a whole
// vector of writes, so enumeration lands crash points between the system-area
// record and the round, inside partially applied vectors, and in return-slot
// collection; recovery takes the ops from the record payload).
func enumTargets(n int) map[string]func(seed int64) Driver {
	want := map[string]bool{
		"counter/PBcomb": true, "counter/PWFcomb": true,
		"queue/PBqueue": true, "queue/PWFqueue": true,
		"stack/PBstack": true, "stack/PWFstack": true,
		"heap/PBheap": true, "heap/PWFheap": true,
		"map/PBmap": true, "map/PWFmap": true,
		"register/PBsparse": true, "register/PWFsparse": true,
		"register/PBbatch": true, "register/PWFbatch": true,
	}
	out := map[string]func(seed int64) Driver{}
	// Arenas for the largest campaign a caller runs (TestDoubleCrashCampaign).
	for _, tg := range MatrixTargets(Config{Threads: n, Ops: 200, Rounds: 4}) {
		if want[tg.Name] {
			out[tg.Name] = tg.Mk
		}
	}
	if len(out) != len(want) {
		panic("enumTargets: the matrix lacks a wanted target")
	}
	return out
}

// TestEnumerateAllTargets replays every persistence-event index of a short
// run for all ten structure/protocol targets, with the torn-line adversary
// in the policy pool, catalog-corruption probes each round, and nested
// crash-during-recovery armed.
func TestEnumerateAllTargets(t *testing.T) {
	for name, mk := range enumTargets(2) {
		name, mk := name, mk
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			var stats obs.FaultStats
			cfg := Config{
				Threads: 2, Ops: 12, Seed: 7,
				Torn: true, Corrupt: true, DoubleCrash: true,
				Faults: &stats,
			}
			rep, fail := Enumerate(mk, cfg)
			if fail != nil {
				t.Fatalf("%s: %v (replay %s)", name, fail.Err, fail.Spec.Token())
			}
			if rep.Truncated {
				t.Fatalf("%s: enumeration truncated without a budget", name)
			}
			if rep.Points < 10 {
				t.Fatalf("%s: only %d crash points explored", name, rep.Points)
			}
			if got := stats.PointsExplored.Load(); got != uint64(rep.Points) {
				t.Fatalf("%s: stats points=%d, report points=%d", name, got, rep.Points)
			}
			if stats.Corruptions.Load() == 0 || stats.Corruptions.Load() != stats.CorruptCaught.Load() {
				t.Fatalf("%s: corruption probes %d, caught %d",
					name, stats.Corruptions.Load(), stats.CorruptCaught.Load())
			}
		})
	}
}

// TestEnumerateBudget caps exploration and expects a truncated report with
// roughly Budget points.
func TestEnumerateBudget(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 30, Seed: 3, Budget: 16}
	rep, fail := Enumerate(matrixTarget(t, cfg, "counter/PBcomb").Mk, cfg)
	if fail != nil {
		t.Fatal(fail.ErrOrNil())
	}
	if !rep.Truncated {
		t.Fatal("budgeted enumeration not marked truncated")
	}
	if rep.Points == 0 || rep.Points > 2*cfg.Budget {
		t.Fatalf("budget %d explored %d points", cfg.Budget, rep.Points)
	}
}

// TestDoubleCrashCampaign runs fuzz campaigns with nested
// crash-during-recovery armed and requires that second crashes actually
// fire and are survived across the target matrix.
func TestDoubleCrashCampaign(t *testing.T) {
	for name, mk := range enumTargets(4) {
		name, mk := name, mk
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			t.Parallel()
			doubles := 0
			for seed := int64(1); seed <= 6; seed++ {
				cfg := Config{
					Threads: 4, Ops: 200, Rounds: 4, Seed: seed,
					Torn: true, DoubleCrash: true,
				}
				rep, fail := Fuzz(mk, cfg)
				if fail != nil {
					t.Fatalf("%s seed %d: %v (replay %s)", name, seed, fail.Err, fail.Spec.Token())
				}
				doubles += rep.Doubles
			}
			if doubles == 0 {
				t.Fatalf("%s: no nested crash ever fired during recovery", name)
			}
		})
	}
}

func TestTokenRoundTrip(t *testing.T) {
	specs := []FailSpec{
		{Seed: 1, Round: 0, Point: 1, Policy: pmem.DropUnfenced},
		{Seed: -42, Round: 7, Point: 123456, Policy: pmem.TornLine},
		{Seed: 99, Round: 2, Point: 0, Policy: pmem.RandomCut},
	}
	for _, s := range specs {
		got, err := ParseToken(s.Token())
		if err != nil {
			t.Fatalf("token %q: %v", s.Token(), err)
		}
		if got != s {
			t.Fatalf("round trip %q: got %+v", s.Token(), got)
		}
	}
	for _, bad := range []string{"", "1:2:3", "x:0:1:apply-all", "1:0:1:nope", "1:-1:1:apply-all"} {
		if _, err := ParseToken(bad); err == nil {
			t.Fatalf("token %q parsed", bad)
		}
	}
}

// brokenDriver wraps the counter driver with a planted bug: Check fails
// whenever a crash interrupted at least one operation (i.e. recovery had
// work to do). Fuzz must catch it, Shrink must reduce it, and the shrunk
// token must still reproduce under Replay.
type brokenDriver struct{ Driver }

func (d brokenDriver) Check() error {
	if err := d.Driver.Check(); err != nil {
		return err
	}
	if d.Driver.(*driver).recovered > 0 {
		return fmt.Errorf("planted bug: %d recovered ops", d.Driver.(*driver).recovered)
	}
	return nil
}

func TestShrinkProducesMinimalReproducer(t *testing.T) {
	mk := func(s int64) Driver { return brokenDriver{NewDriver(counterSpec(pcomb.Blocking), 4, s)} }
	cfg := Config{Threads: 4, Ops: 200, Rounds: 6, Seed: 5, Torn: true, Retries: 3}
	var stats obs.FaultStats
	cfg.Faults = &stats
	_, fail := Fuzz(mk, cfg)
	if fail == nil {
		t.Fatal("planted bug not caught by fuzz")
	}
	spec := Shrink(mk, cfg, *fail)
	if spec.Round > fail.Spec.Round || (spec.Round == fail.Spec.Round && spec.Point > fail.Spec.Point) {
		t.Fatalf("shrink made the schedule bigger: %+v -> %+v", fail.Spec, spec)
	}
	if stats.ShrinkSteps.Load() == 0 {
		t.Fatal("shrink ran no replays")
	}
	if err := Replay(mk, cfg, spec); err == nil {
		t.Fatalf("shrunk token %s does not reproduce", spec.Token())
	}
	// And the original failing spec replays too.
	if err := Replay(mk, cfg, fail.Spec); err == nil {
		t.Fatalf("original token %s does not reproduce", fail.Spec.Token())
	}
}

// TestCorruptionProbeDetects runs a corruption-enabled campaign and then
// separately confirms an unreverted corruption is refused at reopen.
func TestCorruptionProbeDetects(t *testing.T) {
	cfg := Config{Threads: 2, Ops: 50, Rounds: 3, Seed: 11, Corrupt: true}
	var stats obs.FaultStats
	cfg.Faults = &stats
	_, fail := Fuzz(matrixTarget(t, cfg, "counter/PWFcomb").Mk, cfg)
	if fail != nil {
		t.Fatal(fail.ErrOrNil())
	}
	if stats.Corruptions.Load() == 0 || stats.CorruptCaught.Load() != stats.Corruptions.Load() {
		t.Fatalf("corruptions %d, caught %d", stats.Corruptions.Load(), stats.CorruptCaught.Load())
	}
}

// TestRecoveryIdempotentAcrossReopen re-runs a full campaign round, then
// re-opens and re-recovers the same heap twice more with no crash in
// between: the second and third recoveries must be no-ops that leave the
// model checks green.
func TestRecoveryIdempotentAcrossReopen(t *testing.T) {
	for name, mk := range enumTargets(3) {
		d := mk(21)
		h := newShadowHeap()
		d.Open(h)
		d.BeginRound(0)
		h.SetCrashAtEvent(97)
		runOps(3, 100, d.Step)
		h.TriggerCrash()
		h.FinishCrash(pmem.RandomCut, 21)
		for pass := 0; pass < 3; pass++ {
			d.Open(h)
			d.Recover()
			if err := d.Check(); err != nil {
				t.Fatalf("%s pass %d: check after re-recovery: %v", name, pass, err)
			}
			if _, err := d.CheckHistory(); err != nil {
				t.Fatalf("%s pass %d: history after re-recovery: %v", name, pass, err)
			}
		}
	}
}
