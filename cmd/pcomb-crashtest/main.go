// pcomb-crashtest subjects the recoverable structures to simulated
// mid-execution crashes and verifies detectable recoverability (see
// internal/crashtest). A silent exit code 0 means every campaign passed.
//
// Three modes:
//
//   - fuzz (default): seeded sampling campaigns — each round crashes at a
//     seeded global persistence-event index under a seeded adversary.
//   - enumerate: ALICE-style systematic exploration — record one run's
//     persistence-event trace, then replay it once per event index,
//     crashing exactly there (bounded by -budget).
//   - kill: real process kills — each round forks a child of this binary
//     running a journaled workload against an mmap file-backed heap and
//     SIGKILLs it mid-flight, then reopens the file, recovers, and checks
//     durable linearizability (linux only; see -kill-* and -file flags).
//
// Adversaries are opt-in: -torn adds the torn-line policy (partial cache
// lines persist), -corrupt injects region-catalog corruption every round and
// requires typed detection; -double (on by default) fires second crashes
// while recovery itself is replaying.
//
// Any failure is shrunk to a minimal schedule and printed on stderr as a
// one-line reproducer; re-execute it with:
//
//	pcomb-crashtest -target <name> -replay seed:round:point:policy
//
// (in kill mode the token is seed:round:point:rpoint and replays one
// process-kill round against -file).
//
// Exit codes: 0 all passed, 1 a violation was found, 2 the -deadline hard
// cap fired before campaigns finished. Kill-mode children exit 0 (round
// completed), die by SIGKILL (the planned kill), or exit 3/4 (setup /
// recovery failure — fails the campaign).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pcomb/internal/crashtest"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// wantTarget matches -target against a full target name ("queue/PBqueue"),
// its structure group ("queue"), or "all".
func wantTarget(sel, name string) bool {
	return sel == "all" || sel == name || sel == strings.SplitN(name, "/", 2)[0]
}

func main() {
	// A process spawned as a kill-mode child must run the journaled workload
	// (and die at its kill point) instead of hosting campaigns.
	if crashtest.KillChildRequested() {
		crashtest.KillChildMain()
	}
	var (
		mode     = flag.String("mode", "fuzz", "engine: fuzz (seeded sampling), enumerate (every crash point), or kill (real SIGKILLed child processes)")
		seeds    = flag.Int("seeds", 20, "seeds per target (campaigns in fuzz mode, runs in enumerate mode)")
		threads  = flag.Int("threads", 8, "worker goroutines")
		ops      = flag.Int("ops", 1000, "operation budget per thread per round")
		rounds   = flag.Int("rounds", 3, "crash rounds per seed (fuzz mode)")
		tgt      = flag.String("target", "all", "target: a structure (counter queue stack heap map register), a full name like queue/PBqueue, or all")
		torn     = flag.Bool("torn", false, "add the torn-line adversary (partial cache lines persist)")
		corrupt  = flag.Bool("corrupt", false, "inject region-catalog corruption every round and require typed detection")
		double   = flag.Bool("double", true, "fire second crashes while recovery is replaying")
		budget   = flag.Int("budget", 0, "enumerate: max crash points per run (0 = all)")
		replay   = flag.String("replay", "", "re-execute one failing schedule (seed:round:point:policy; needs a single -target)")
		deadline = flag.Duration("deadline", 0, "wall-clock cap; exceeds -> truncate, hard-exit 2 shortly after")

		durlin       = flag.Bool("durlin", false, "record per-round histories and check durable linearizability (crash-cut semantics)")
		durlinBudget = flag.Int64("durlin-budget", 0, "checker step budget per round (0 = default)")
		durlinMaxOps = flag.Int("durlin-maxops", 0, "skip non-partitionable history checks beyond this many ops (0 = default)")

		fileDir      = flag.String("file", "", "kill mode: directory for heap files (default: a temp dir, removed after)")
		fileSync     = flag.String("file-sync", "none", "kill mode: msync policy for the file heap (none async fence)")
		killTimer    = flag.Bool("kill-timer", false, "kill mode: wall-clock parent-side kills instead of persistence-event kills")
		killPace     = flag.Int("kill-pace", 200, "kill mode: child per-op pacing in µs (timer kills only)")
		killRecovery = flag.Bool("kill-recovery", true, "kill mode: also kill recovery children mid-recovery (double-recovery idempotence)")
		killSabotage = flag.Bool("kill-sabotage", false, "kill mode: enable the seeded recovery bug in the verifier (mutation check: expect exit 1)")
		minKills     = flag.Int("min-kills", 0, "kill mode: fail (exit 1) unless at least this many children were SIGKILLed in total")
		killSeed     = flag.Int64("seed", 1, "kill mode: campaign seed")
	)
	flag.Parse()

	// Enumerate is exhaustive per event index (and kill mode forks a process
	// per round), so their sensible defaults are much smaller than fuzz; only
	// override what the user did not set.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch *mode {
	case "fuzz":
	case "enumerate":
		if !set["seeds"] {
			*seeds = 2
		}
		if !set["threads"] {
			*threads = 2
		}
		if !set["ops"] {
			*ops = 25
		}
	case "kill":
		if !set["threads"] {
			*threads = 3
		}
		if !set["ops"] {
			*ops = 24
		}
		if !set["rounds"] {
			*rounds = 18
		}
		os.Exit(killMode(killModeConfig{
			target: *tgt, dir: *fileDir, syncName: *fileSync,
			threads: *threads, ops: *ops, rounds: *rounds, seed: *killSeed,
			timer: *killTimer, paceUs: *killPace,
			recoverKill: *killRecovery, sabotage: *killSabotage,
			minKills: *minKills, replay: *replay, deadline: *deadline,
			durLin: crashtest.DurLinOpts{Budget: *durlinBudget, MaxOps: *durlinMaxOps},
		}))
	default:
		fmt.Fprintf(os.Stderr, "pcomb-crashtest: unknown -mode %q\n", *mode)
		os.Exit(1)
	}

	var stats obs.FaultStats
	baseCfg := crashtest.Config{
		Threads: *threads, Ops: *ops, Rounds: *rounds,
		Torn: *torn, Corrupt: *corrupt, DoubleCrash: *double,
		Budget: *budget, Faults: &stats,
		DurLin: *durlin, DurLinBudget: *durlinBudget, DurLinMaxOps: *durlinMaxOps,
	}
	if *deadline > 0 {
		baseCfg.Deadline = time.Now().Add(*deadline)
		// Hard backstop so a wedged campaign cannot hang CI: the soft
		// deadline truncates cooperatively; if that fails, exit 2.
		time.AfterFunc(*deadline+30*time.Second, func() {
			fmt.Fprintf(os.Stderr, "pcomb-crashtest: hard deadline exceeded (%v + 30s grace)\n", *deadline)
			os.Exit(2)
		})
	}

	var replaySpec crashtest.FailSpec
	if *replay != "" {
		var err error
		if replaySpec, err = crashtest.ParseToken(*replay); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The token's round may lie past -rounds' default; the node arenas are
		// sized from the campaign, so make it at least as long as the replay.
		baseCfg.Rounds = max(baseCfg.Rounds, replaySpec.Round+1)
	}

	var selected []crashtest.Target
	for _, t := range crashtest.MatrixTargets(baseCfg) {
		if wantTarget(*tgt, t.Name) {
			selected = append(selected, t)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "pcomb-crashtest: no target matches %q\n", *tgt)
		os.Exit(1)
	}

	if *replay != "" {
		if len(selected) != 1 {
			fmt.Fprintf(os.Stderr, "pcomb-crashtest: -replay needs a single -target (got %d matches for %q)\n",
				len(selected), *tgt)
			os.Exit(1)
		}
		t := selected[0]
		if err := crashtest.Replay(t.Mk, baseCfg, replaySpec); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %-16s reproduced: %v\n", t.Name, err)
			os.Exit(1)
		}
		fmt.Printf("ok   %-16s replay %s did not fail\n", t.Name, replaySpec.Token())
		return
	}

	failed := false
	for _, t := range selected {
		mk := t.Mk
		var total crashtest.Report
		var firstFail *crashtest.Failure
		for s := int64(1); s <= int64(*seeds); s++ {
			cfg := baseCfg
			cfg.Seed = s
			var rep crashtest.Report
			var f *crashtest.Failure
			if *mode == "enumerate" {
				rep, f = crashtest.Enumerate(mk, cfg)
			} else {
				rep, f = crashtest.Fuzz(mk, cfg)
			}
			total.Merge(rep)
			if f != nil {
				firstFail = f
				break
			}
			if rep.Truncated {
				break
			}
		}
		if firstFail != nil {
			failed = true
			spec := crashtest.Shrink(mk, baseCfg, *firstFail)
			fmt.Fprintf(os.Stderr, "FAIL %-16s %v\n", t.Name, firstFail.Err)
			fmt.Fprintf(os.Stderr, "     reproduce: pcomb-crashtest -target %s -threads %d -ops %d%s%s -replay %s\n",
				t.Name, *threads, *ops,
				boolFlag(" -torn", *torn), boolFlag(" -corrupt", *corrupt), spec.Token())
			continue
		}
		fmt.Printf("ok   %-16s %s\n", t.Name, total)
	}
	fmt.Printf("faults: %s\n", stats.String())

	if failed {
		os.Exit(1)
	}
}

func boolFlag(s string, on bool) string {
	if on {
		return s
	}
	return ""
}

// killModeConfig carries the kill-mode flag values.
type killModeConfig struct {
	target, dir, syncName string
	threads, ops, rounds  int
	seed                  int64
	timer                 bool
	paceUs                int
	recoverKill, sabotage bool
	minKills              int
	replay                string
	deadline              time.Duration
	durLin                crashtest.DurLinOpts
}

// killMode runs real process-kill campaigns (crashtest.RunKill) across the
// {PBcomb, PWFcomb} x {queue, map} kill matrix and returns the process exit
// code: 0 all campaigns passed, 1 a campaign failed or the -min-kills floor
// was missed.
func killMode(c killModeConfig) int {
	sync, ok := pmem.ParseSyncMode(c.syncName)
	if !ok {
		fmt.Fprintf(os.Stderr, "pcomb-crashtest: unknown -file-sync %q (want none, async, or fence)\n", c.syncName)
		return 1
	}
	dir := c.dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pcomb-kill-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if c.deadline > 0 {
		time.AfterFunc(c.deadline, func() {
			fmt.Fprintf(os.Stderr, "pcomb-crashtest: kill-mode deadline exceeded (%v)\n", c.deadline)
			os.Exit(2)
		})
	}

	var selected []crashtest.KillTargetDef
	for _, d := range crashtest.KillTargets() {
		if wantTarget(c.target, d.Name) {
			selected = append(selected, d)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "pcomb-crashtest: no kill target matches %q\n", c.target)
		return 1
	}
	var replaySpec *crashtest.KillSpec
	if c.replay != "" {
		if len(selected) != 1 {
			fmt.Fprintf(os.Stderr, "pcomb-crashtest: -replay needs a single -target (got %d matches for %q)\n",
				len(selected), c.target)
			return 1
		}
		spec, err := crashtest.ParseKillToken(c.replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		replaySpec = &spec
	}

	failed := false
	kills := 0
	for _, d := range selected {
		cfg := crashtest.KillConfig{
			Target:  d.Name,
			Path:    filepath.Join(dir, strings.ReplaceAll(d.Name, "/", "_")+".heap"),
			Threads: c.threads, Ops: c.ops, Rounds: c.rounds, Seed: c.seed,
			Timer: c.timer, PaceUs: c.paceUs,
			RecoverKill: c.recoverKill, Sabotage: c.sabotage,
			Sync: sync, DurLin: c.durLin, Replay: replaySpec,
		}
		rep, fail := crashtest.RunKill(cfg)
		kills += rep.Kills + rep.RecKills
		if fail != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "FAIL %-16s %v\n", d.Name, fail.Err)
			fmt.Fprintf(os.Stderr, "     reproduce: pcomb-crashtest -mode kill -target %s -threads %d -ops %d -replay %s\n",
				d.Name, c.threads, c.ops, fail.Spec.Token())
			continue
		}
		fmt.Printf("ok   %-16s rounds=%d kills=%d reckills=%d completed=%d timeouts=%d ops=%d recovered=%d checked=%d skipped=%d\n",
			d.Name, rep.Rounds, rep.Kills, rep.RecKills, rep.Completed, rep.Timeouts,
			rep.Ops, rep.Recovered, rep.Checked, rep.Skipped)
	}
	fmt.Printf("kills: %d children SIGKILLed across %d campaigns\n", kills, len(selected))
	if c.minKills > 0 && kills < c.minKills {
		fmt.Fprintf(os.Stderr, "pcomb-crashtest: %d kills below the -min-kills %d floor\n", kills, c.minKills)
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}
