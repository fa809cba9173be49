//go:build linux

package crashtest

import (
	"errors"
	"os"
	"testing"
	"time"

	"pcomb/internal/history"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
	"pcomb/internal/testutil"
)

// TestMain routes re-exec'd kill children into KillChildMain before the test
// framework runs: RunKill spawns this very test binary with the kill-child
// environment set, and those processes must run the journaled workload (and
// die) instead of the test suite.
func TestMain(m *testing.M) {
	if KillChildRequested() {
		KillChildMain() // does not return
	}
	os.Exit(m.Run())
}

func killTestConfig(t *testing.T, target string) KillConfig {
	t.Helper()
	return KillConfig{
		Target:   target,
		Path:     testutil.TempHeapPath(t),
		Seed:     0xC0FFEE,
		Rounds:   10,
		Deadline: 30 * time.Second,
		// Epoch histories carry many volatile (vanish-or-linearize) ops, and
		// the checker's default budget lets a single round burn seconds before
		// giving a verdict; this cap keeps campaigns fast without costing
		// verdicts (strict rounds never get near it).
		DurLin: DurLinOpts{Budget: 200_000},
	}
}

// TestKillCampaignMatrix runs a short real-SIGKILL campaign against every
// target in the {PBcomb, PWFcomb} x {queue, map} matrix: every round must
// recover and pass the durable-linearizability check, and the campaign must
// actually kill children (a campaign that never kills proves nothing).
func TestKillCampaignMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	for _, def := range KillTargets() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			cfg := killTestConfig(t, def.Name)
			rep, fail := RunKill(cfg)
			if err := fail.ErrOrNil(); err != nil {
				t.Fatal(err)
			}
			if rep.Rounds != cfg.Rounds {
				t.Fatalf("ran %d rounds, want %d", rep.Rounds, cfg.Rounds)
			}
			if rep.Kills < 1 {
				t.Fatalf("campaign never killed a child (completed=%d)", rep.Completed)
			}
			if rep.Ops == 0 {
				t.Fatal("campaign verified no operations")
			}
			if rep.Checked == 0 {
				t.Fatalf("no round got a durable-linearizability verdict (skipped=%d)", rep.Skipped)
			}
			if rep.Checked+rep.Skipped != rep.Rounds {
				t.Fatalf("checked %d + skipped %d != rounds %d", rep.Checked, rep.Skipped, rep.Rounds)
			}
		})
	}
}

// TestKillRecoveryKill kills recovery children mid-recovery on top of the
// workload kills: the parent's verify pass then re-runs recovery over
// already-recovered records and fails if the second pass's responses diverge
// from the first's — recovery must be idempotent even when it is itself
// interrupted and re-run.
func TestKillRecoveryKill(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	cfg := killTestConfig(t, "queue/PWFqueue")
	cfg.RecoverKill = true
	cfg.Rounds = 24
	rep, fail := RunKill(cfg)
	if err := fail.ErrOrNil(); err != nil {
		t.Fatal(err)
	}
	if rep.Kills < 1 {
		t.Fatal("campaign never killed a workload child")
	}
	if rep.RecKills < 1 {
		t.Fatalf("campaign never killed a recovery child in %d rounds", rep.Rounds)
	}
	if rep.Recovered == 0 {
		t.Fatal("campaign never resolved an interrupted operation")
	}
}

// TestKillTimerMode covers the wall-clock kill schedule: the parent waits for
// the child's READY handshake, sleeps the planned slice, and SIGKILLs it from
// outside — no cooperation from the child's instrumentation at all.
func TestKillTimerMode(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	cfg := killTestConfig(t, "map/PWFmap")
	cfg.Timer = true
	cfg.PaceUs = 300
	cfg.Rounds = 6
	rep, fail := RunKill(cfg)
	if err := fail.ErrOrNil(); err != nil {
		t.Fatal(err)
	}
	if rep.Kills < 1 {
		t.Fatalf("timer campaign never killed a child (completed=%d)", rep.Completed)
	}
}

// TestKillReplay replays a single fixed kill schedule from a spec — the
// mechanism behind the seed:round:point:rpoint reproducer tokens printed on
// campaign failure.
func TestKillReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	cfg := killTestConfig(t, "map/PBmap")
	spec := KillSpec{Seed: 7, Round: 3, Point: 40}
	cfg.Replay = &spec
	rep, fail := RunKill(cfg)
	if err := fail.ErrOrNil(); err != nil {
		t.Fatal(err)
	}
	if rep.Rounds != 1 {
		t.Fatalf("replay ran %d rounds, want 1", rep.Rounds)
	}
}

// cleanControl re-runs a failed mutation campaign's schedule, up to and
// including the failing round, without the mutation (on a fresh heap file): it
// must pass, or the failure proved nothing about the mutation.
func cleanControl(t *testing.T, cfg KillConfig, fail *KillFailure) {
	t.Helper()
	cfg.Sabotage, cfg.EpochSabotage = false, false
	cfg.Path = testutil.TempHeapPath(t)
	cfg.Rounds = fail.Spec.Round + 1
	if _, f := RunKill(cfg); f != nil {
		t.Fatalf("clean control of the failing schedule failed too: %v", f.ErrOrNil())
	}
}

// TestKillSabotageCaught is the harness's mutation test: with the seeded
// recovery bug enabled in the parent verifier (recovery skips the re-announce
// and conditional re-perform), a campaign of real kills must produce a
// durable-linearizability violation — and the failure must carry a parseable
// reproducer token.
func TestKillSabotageCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	cfg := killTestConfig(t, "queue/PBqueue")
	cfg.Sabotage = true
	cfg.Rounds = 40
	rep, fail := RunKill(cfg)
	if fail == nil {
		t.Fatalf("sabotaged recovery survived %d rounds (%d kills, %d recovered ops)",
			rep.Rounds, rep.Kills, rep.Recovered)
	}
	spec, err := ParseKillToken(fail.Spec.Token())
	if err != nil {
		t.Fatalf("failure token %q does not parse: %v", fail.Spec.Token(), err)
	}
	if spec != fail.Spec {
		t.Fatalf("token round-trip changed spec: %+v -> %+v", fail.Spec, spec)
	}
	cleanControl(t, cfg, fail)
}

// TestKillEpochLongCampaign is the epoch mode's headline durability claim
// made executable: across a long campaign of real SIGKILLs against an
// epoch-mode queue (group commit, no persistence on the operation path),
// every round must verify with zero closed-epoch losses — operations whose
// epoch label is at or below the durable stamp the verifier finds at reopen
// keep StatusCompleted and MUST survive the kill. Open-epoch completions are
// free to vanish; that freedom is exactly the bounded loss window. The
// campaign also kills recovery children mid-recovery, so the parity-gated
// epoch recovery pass gets re-entered on top of its own partial work.
func TestKillEpochLongCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	cfg := killTestConfig(t, "queue/PWFqueue-epoch")
	cfg.Rounds = 120
	cfg.RecoverKill = true
	rep, fail := RunKill(cfg)
	if err := fail.ErrOrNil(); err != nil {
		t.Fatal(err)
	}
	if rep.Kills < 50 {
		t.Fatalf("campaign killed only %d children in %d rounds, want >= 50", rep.Kills, rep.Rounds)
	}
	if rep.Checked < rep.Rounds/2 {
		t.Fatalf("only %d of %d rounds got a verdict", rep.Checked, rep.Rounds)
	}
	t.Logf("epoch campaign: %d kills, %d recovery kills, %d ops verified, %d recovered, %d checked",
		rep.Kills, rep.RecKills, rep.Ops, rep.Recovered, rep.Checked)
}

// TestKillEpochSabotageCaught is the kill-level twin of the simulated epoch
// mutation test: with the group-commit bug injected into the children
// (closes advance the durable stamp without persisting the epoch's
// write-backs — acknowledging before fsync), a campaign of real SIGKILLs
// must produce a durable-linearizability violation, because closed-epoch
// completions the checker refuses to let vanish really are gone.
func TestKillEpochSabotageCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	cfg := killTestConfig(t, "queue/PBqueue-epoch")
	cfg.EpochSabotage = true
	cfg.Rounds = 40
	rep, fail := RunKill(cfg)
	if fail == nil {
		t.Fatalf("sabotaged epoch closes survived %d rounds (%d kills)", rep.Rounds, rep.Kills)
	}
	if _, err := ParseKillToken(fail.Spec.Token()); err != nil {
		t.Fatalf("failure token %q does not parse: %v", fail.Spec.Token(), err)
	}
	cleanControl(t, cfg, fail)
}

// TestKillWrongSpecFails is the kill engine's turn at the wrong Specs of
// TestMutationWrongSpecFails: the children run the right target, the verifier
// judges them by the wrong Spec and must fail where the right one passes.
func TestKillWrongSpecFails(t *testing.T) {
	if testing.Short() {
		t.Skip("process-kill campaign in -short mode")
	}
	for _, ws := range wrongSpecs {
		t.Run(ws.name, func(t *testing.T) {
			t.Parallel()
			cfg := killTestConfig(t, ws.right().Name)
			if _, fail := RunKill(cfg); fail != nil {
				t.Fatalf("right spec failed: %v", fail.ErrOrNil())
			}
			cfg.Path = testutil.TempHeapPath(t)
			wrong := KillTargetDef{cfg.Target, func() KillTarget { return &specKT{sp: ws.wrong()} }}
			if rep, fail := runKill(cfg, wrong); fail == nil {
				t.Fatalf("wrong spec passed %d rounds (%d ops)", rep.Rounds, rep.Ops)
			}
		})
	}
}

func TestParseKillToken(t *testing.T) {
	spec := KillSpec{Seed: -3, Round: 11, Point: 1729, RecPoint: 42}
	got, err := ParseKillToken(spec.Token())
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("round-trip: %+v -> %+v", spec, got)
	}
	// A negative seed is a seed like any other (Seed -3 round-trips above);
	// a negative round would wrap to a huge uint64 in the value generator,
	// and a negative point or rpoint would silently disarm the kill.
	for _, bad := range []string{"", "1:2:3", "1:2:3:4:5", "a:b:c:d", "1:-1:3:4", "1:2:-1:4", "1:2:3:-1"} {
		if _, err := ParseKillToken(bad); err == nil {
			t.Errorf("ParseKillToken(%q) accepted", bad)
		}
	}
}

// TestJournalIsTheRecordersTwin drives the two back ends of the history log —
// the in-memory recorder and the file-backed journal — with one sequence of
// calls, reopening the journal midway as a new process would, and requires
// the same history out of both: the same operations, fates and responses in
// the same per-thread order.
func TestJournalIsTheRecordersTwin(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
	open := func() *Journal {
		j, err := OpenJournal(h, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j, rec := open(), history.New(2)
	both := func(f func(l sysarea.Log)) { f(j); f(rec) }
	both(func(l sysarea.Log) {
		l.Begin(0, lin.KindEnq, 10, 0)
		l.End(0, 0)
		// A vector: three invocations, then the responses in order — of which
		// the crash lets only the first through.
		l.Begin(1, lin.KindDeq, 0, 0)
		l.Begin(1, lin.KindDeq, 0, 0)
		l.Begin(1, lin.KindEnq, 11, 0)
		l.End(1, 10)
		l.Begin(0, lin.KindEnq, 12, 0) // interrupted, and never resolved
	})
	j = open() // the verifier's process
	both(func(l sysarea.Log) {
		if !l.Resolve(1, lin.EmptyOut) {
			t.Fatal("Resolve found no open operation")
		}
	})
	got, want := j.Ops(), rec.Ops()
	if len(got) != len(want) {
		t.Fatalf("journal has %d ops, recorder %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Thread != w.Thread || g.Kind != w.Kind || g.Arg != w.Arg || g.Status != w.Status ||
			(w.Status != lin.StatusPending && g.Out != w.Out) {
			t.Fatalf("op %d: journal %+v, recorder %+v", i, g, w)
		}
	}
	j.Reset()
	if n := len(j.Ops()); n != 0 {
		t.Fatalf("%d ops after Reset, want 0", n)
	}
}

// TestJournalEpochCut pins the crash-cut stamp discipline: the first
// post-kill observer's stamp wins for the whole round — later reattaches
// (whose stamp a recovery pass's closes have advanced) change nothing — and
// Reset invalidates the pin for the next round.
func TestJournalEpochCut(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
	j, err := OpenJournal(h, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	j.SetEpochClock(func() uint64 { return 44 })
	status := func() lin.Status {
		j.Begin(0, lin.KindEnq, 1, 0)
		j.End(0, 0) // completed in epoch 44
		return j.Ops()[0].Status
	}
	j.Cut(43)
	// A recovery child closed epochs and died; the parent reads stamp 45.
	j.Cut(45)
	if got := status(); got != lin.StatusVolatile {
		t.Fatalf("cut pinned at 43: epoch-44 completion has status %v, want volatile", got)
	}
	j.Reset()
	j.Cut(45)
	if got := status(); got != lin.StatusCompleted {
		t.Fatalf("after Reset, cut at 45: epoch-44 completion has status %v, want completed", got)
	}
}

// TestOpenJournalGeometryMismatch pins the typed error for reattaching the
// journal with the wrong shape.
func TestOpenJournalGeometryMismatch(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
	if _, err := OpenJournal(h, 2, 8); err != nil {
		t.Fatal(err)
	}
	_, err := OpenJournal(h, 3, 8)
	if !errors.Is(err, pmem.ErrSizeMismatch) {
		t.Fatalf("threads mismatch error = %v, want ErrSizeMismatch", err)
	}
}
