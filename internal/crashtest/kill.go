package crashtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
)

// This file is the process-kill campaign: the part of the crashtest suite
// where the adversary is the operating system, not a simulation. Each round
// the parent forks a child process (a re-exec of its own binary, routed by
// environment variable) that attaches the file-backed heap, runs a journaled
// workload, and is SIGKILLed mid-flight — by default at a seeded,
// deterministic global persistence-event index (pmem.SetKillAtEvent +
// self-SIGKILL), optionally by parent wall-clock timer. The parent then
// reopens the file, reattaches the structure, resolves every interrupted
// operation through the structure's Recover, and judges the round's journal
// by the target's Spec: the always-on audit, then the durable-linearizability
// crash-cut checker.
// Optionally a *recovery* child runs first and is itself killed mid-recovery,
// so the parent's pass doubles as a double-recovery idempotence test.
//
// Exit-code contract for children: 0 = round completed before the kill
// point; death by SIGKILL = the planned kill (or the parent's backstop);
// any other exit is a child-side failure and fails the campaign, with the
// child's stderr attached.

// Child-process environment protocol.
const (
	killChildEnv = "PCOMB_KILL_CHILD" // set (non-empty) = run KillChildMain
	killSpecEnv  = "PCOMB_KILL_SPEC"  // JSON killChildSpec
)

// killChildSpec is the parent→child work order.
type killChildSpec struct {
	Target   string `json:"target"`
	Path     string `json:"path"`
	Threads  int    `json:"threads"`
	Ops      int    `json:"ops"`
	Seed     int64  `json:"seed"`
	Round    int    `json:"round"`               // campaign round index (rng material)
	Point    int64  `json:"point"`               // kill at the Point-th persistence event (0 = run to completion)
	PaceUs   int    `json:"pace_us"`             // per-op pacing; >0 also prints READY (timer mode)
	Recover  bool   `json:"recover"`             // recovery child: resolve the journal, die at Point
	Sync     int    `json:"sync"`                // pmem.SyncMode
	EpochSab bool   `json:"epoch_sab,omitempty"` // child-side pmem.SetEpochSabotage (mutation testing)
}

// KillSpec identifies one round's kill schedule; its Token is the
// reproducer printed on failure.
type KillSpec struct {
	Seed     int64
	Round    int
	Point    int64 // persistence-event kill index (µs delay in timer mode); 0 = no kill
	RecPoint int64 // recovery child's kill index; 0 = no recovery child
}

// Token renders the spec as seed:round:point:rpoint.
func (s KillSpec) Token() string {
	return fmt.Sprintf("%d:%d:%d:%d", s.Seed, s.Round, s.Point, s.RecPoint)
}

// ParseKillToken parses a Token. As in ParseToken, the seed may be negative
// and the other fields may not.
func ParseKillToken(tok string) (KillSpec, error) {
	parts := strings.Split(tok, ":")
	if len(parts) != 4 {
		return KillSpec{}, fmt.Errorf("crashtest: kill token %q: want seed:round:point:rpoint", tok)
	}
	var vals [4]int64
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return KillSpec{}, fmt.Errorf("crashtest: kill token %q: %v", tok, err)
		}
		if i > 0 && v < 0 {
			return KillSpec{}, fmt.Errorf("crashtest: kill token %q: negative %s", tok, [4]string{"seed", "round", "point", "rpoint"}[i])
		}
		vals[i] = v
	}
	return KillSpec{Seed: vals[0], Round: int(vals[1]), Point: vals[2], RecPoint: vals[3]}, nil
}

// KillConfig configures a process-kill campaign.
type KillConfig struct {
	Target string // KillTargets name
	Path   string // heap file path (parent and children share it)
	Bin    string // child binary; "" = os.Executable() (re-exec self)

	Threads int // worker threads per child (default 3)
	Ops     int // ops per thread per round (default 24)
	Rounds  int // campaign rounds (default 12)
	Seed    int64

	Timer  bool // wall-clock kills instead of persistence-event kills
	PaceUs int  // child per-op pacing in timer mode (default 200)

	RecoverKill bool // kill a recovery child mid-recovery on some rounds
	Sabotage    bool // mutation testing: sabotage the verifier's recovery
	// EpochSabotage turns on pmem.SetEpochSabotage inside the workload
	// children: epoch closes advance the durable stamp without persisting the
	// write-backs, so a SIGKILL loses closed-epoch completions the verifier
	// is entitled to find — the campaign must fail (mutation testing).
	EpochSabotage bool

	Sync     pmem.SyncMode
	Deadline time.Duration // per-child backstop (default 20s)
	DurLin   DurLinOpts

	Replay *KillSpec // replay exactly one round's schedule
}

// KillReport aggregates a campaign.
type KillReport struct {
	Rounds    int // rounds run (excluding the adopt pass)
	Kills     int // workload children killed by SIGKILL
	RecKills  int // recovery children killed by SIGKILL
	Completed int // children that finished their round unharmed
	Timeouts  int // backstop kills (child exceeded the deadline)
	Ops       int // journal records verified
	Recovered int // interrupted ops resolved by recovery
	Checked   int // rounds with a durable-linearizability verdict
	Skipped   int // rounds skipped (history too large / budget exhausted)
}

// KillFailure is a failed campaign: the reproducer spec plus the cause.
type KillFailure struct {
	Target string
	Spec   KillSpec
	Err    error
}

// ErrOrNil renders the failure as an error.
func (f *KillFailure) ErrOrNil() error {
	if f == nil {
		return nil
	}
	return fmt.Errorf("kill campaign %s failed (replay token %s): %w", f.Target, f.Spec.Token(), f.Err)
}

func (cfg *KillConfig) defaults() {
	if cfg.Threads <= 0 {
		cfg.Threads = 3
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 24
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 12
	}
	if cfg.PaceUs <= 0 {
		cfg.PaceUs = 200
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 20 * time.Second
	}
}

// killPlan derives round r's kill schedule: log-uniform over the round's
// expected persistence-event span (so early, mid and late kills all occur),
// with every sixth round left unkilled to also cover clean hand-offs.
// In timer mode Point is a microsecond delay over the paced round instead.
func killPlan(cfg *KillConfig, r int) KillSpec {
	rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(r)*104729 + 13))
	span := int64(cfg.Threads*cfg.Ops) * 24
	if cfg.Timer {
		span = int64(cfg.Threads*cfg.Ops*cfg.PaceUs) * 2
	}
	spec := KillSpec{Seed: cfg.Seed, Round: r}
	if r%6 != 5 {
		spec.Point = 1 + int64(math.Exp(rng.Float64()*math.Log(float64(span))))
	}
	if cfg.RecoverKill && spec.Point > 0 && rng.Intn(2) == 0 {
		spec.RecPoint = 1 + rng.Int63n(64)
	}
	return spec
}

// RunKill runs a process-kill campaign against one target. It returns the
// aggregate report and, on the first failed round, a KillFailure carrying
// the seed:round:point:rpoint reproducer token. Linux only.
func RunKill(cfg KillConfig) (KillReport, *KillFailure) {
	def, ok := LookupKillTarget(cfg.Target)
	if !ok {
		return KillReport{}, &KillFailure{Target: cfg.Target, Err: fmt.Errorf("unknown kill target %q", cfg.Target)}
	}
	return runKill(cfg, def)
}

// runKill is RunKill with the parent-side target given: the children still
// run the target cfg.Target names, def is who verifies them.
func runKill(cfg KillConfig, def KillTargetDef) (KillReport, *KillFailure) {
	var rep KillReport
	cfg.defaults()
	fail := func(spec KillSpec, err error) (KillReport, *KillFailure) {
		return rep, &KillFailure{Target: cfg.Target, Spec: spec, Err: err}
	}
	if runtime.GOOS != "linux" {
		return fail(KillSpec{}, fmt.Errorf("process-kill campaigns require linux"))
	}
	bin := cfg.Bin
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return fail(KillSpec{}, fmt.Errorf("resolving child binary: %v", err))
		}
		bin = exe
	}

	// Adopt pass: create the file on first contact, or resolve whatever an
	// earlier (possibly killed) campaign left behind, and seed the carry
	// snapshot the first verified round builds on.
	carry, _, err := killVerify(&cfg, def, nil, true)
	if err != nil {
		return fail(KillSpec{}, fmt.Errorf("adopt pass: %w", err))
	}

	rounds := cfg.Rounds
	if cfg.Replay != nil {
		rounds = 1
		cfg.Seed = cfg.Replay.Seed
	}
	for r := 0; r < rounds; r++ {
		spec := killPlan(&cfg, r)
		if cfg.Replay != nil {
			spec = *cfg.Replay
		}

		// Workload child.
		cs := killChildSpec{
			Target: cfg.Target, Path: cfg.Path,
			Threads: cfg.Threads, Ops: cfg.Ops,
			Seed: cfg.Seed, Round: spec.Round, Sync: int(cfg.Sync),
			EpochSab: cfg.EpochSabotage,
		}
		var delay time.Duration
		if cfg.Timer {
			cs.PaceUs = cfg.PaceUs
			delay = time.Duration(spec.Point) * time.Microsecond
		} else {
			cs.Point = spec.Point
		}
		out, stderr, err := runKillChild(bin, cs, delay, cfg.Deadline)
		if err != nil {
			return fail(spec, fmt.Errorf("workload child: %v\n%s", err, stderr))
		}
		switch out {
		case childCompleted:
			rep.Completed++
		case childKilled:
			rep.Kills++
		case childTimeout:
			rep.Kills++
			rep.Timeouts++
		}

		// Optional recovery child, killed mid-recovery: the parent's own
		// pass below then re-runs recovery, checking idempotence.
		if spec.RecPoint > 0 {
			rs := cs
			rs.Recover, rs.Point, rs.PaceUs = true, spec.RecPoint, 0
			out, stderr, err := runKillChild(bin, rs, 0, cfg.Deadline)
			if err != nil {
				return fail(spec, fmt.Errorf("recovery child: %v\n%s", err, stderr))
			}
			if out == childKilled || out == childTimeout {
				rep.RecKills++
			}
		}

		// Parent verify: reopen, reattach, recover, check, reset.
		next, rr, err := killVerify(&cfg, def, carry, false)
		if err != nil {
			return fail(spec, err)
		}
		carry = next
		rep.Rounds++
		rep.Ops += rr.ops
		rep.Recovered += rr.recovered
		if rr.checked {
			rep.Checked++
		} else {
			rep.Skipped++
		}
	}
	return rep, nil
}

// killRoundResult is one verify pass's accounting.
type killRoundResult struct {
	ops       int
	recovered int
	checked   bool
}

// journalFanout is how many journal records one step can take: the longest
// staged vector or transaction a Spec issues.
const journalFanout = specVecCap

// killVerify is the parent-side recovery + verification pass: open the file
// (fresh mapping — exactly what a new process sees), reattach the target,
// resolve interrupted operations, judge the journal history, reset the
// journal and capture the next round's carry snapshot.
func killVerify(cfg *KillConfig, def KillTargetDef, carry []uint64, adopt bool) ([]uint64, killRoundResult, error) {
	var rr killRoundResult
	h, restart, err := pmem.OpenFile(cfg.Path, pmem.FileOpts{Sync: cfg.Sync, Cfg: pmem.Config{NoCost: true}})
	if err != nil {
		return nil, rr, fmt.Errorf("reopening heap file: %w", err)
	}
	defer h.Close()
	if !adopt && !restart {
		return nil, rr, fmt.Errorf("heap file vanished mid-campaign")
	}
	j, err := OpenJournal(h, cfg.Threads, cfg.Ops*journalFanout)
	if err != nil {
		return nil, rr, err
	}
	t := def.Mk()
	t.Attach(h, cfg.Threads, j)
	// Stop a target's background goroutines (an epoch's closer) before the
	// heap mapping goes away.
	defer t.Close()
	if cfg.Sabotage {
		core.SetRecoverSabotage(true)
		defer core.SetRecoverSabotage(false)
	}
	if err := t.Recover(); err != nil {
		return nil, rr, err
	}
	for tid := 0; tid < cfg.Threads; tid++ {
		for _, rec := range j.Records(tid) {
			rr.ops++
			if rec.State == recRecovered {
				rr.recovered++
			}
		}
	}
	if !adopt {
		checked, err := t.Verify(carry, cfg.DurLin)
		if err != nil {
			return nil, rr, err
		}
		rr.checked = checked
	}
	j.Reset()
	return t.Snapshot(), rr, nil
}

// childOutcome classifies a child's exit.
type childOutcome int

const (
	childCompleted childOutcome = iota
	childKilled
	childTimeout
)

// runKillChild spawns one child and waits for it. delay > 0 waits for the
// child's READY line and then kills it from the parent (timer mode). The
// backstop SIGKILL at deadline protects the campaign from a hung child — and
// since "kill at any moment" is exactly the property under test, a timed-out
// round still verifies.
func runKillChild(bin string, spec killChildSpec, delay, deadline time.Duration) (childOutcome, string, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return childCompleted, "", err
	}
	cmd := exec.Command(bin)
	cmd.Env = append(os.Environ(), killChildEnv+"=1", killSpecEnv+"="+string(payload))
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	var stdout io.ReadCloser
	if delay > 0 {
		stdout, err = cmd.StdoutPipe()
		if err != nil {
			return childCompleted, "", err
		}
	} else {
		cmd.Stdout = io.Discard
	}
	if err := cmd.Start(); err != nil {
		return childCompleted, "", err
	}
	var timedOut atomic.Bool
	backstop := time.AfterFunc(deadline, func() {
		timedOut.Store(true)
		_ = cmd.Process.Kill()
	})
	defer backstop.Stop()
	if delay > 0 {
		// Wait for the child to finish attaching, let the paced workload run
		// for the planned slice of wall-clock time, then kill it.
		br := bufio.NewReader(stdout)
		_, _ = br.ReadString('\n')
		time.Sleep(delay)
		_ = cmd.Process.Kill()
		go io.Copy(io.Discard, br) //nolint:errcheck // drain until death
	}
	werr := cmd.Wait()
	switch {
	case werr == nil:
		return childCompleted, errBuf.String(), nil
	case killedBySIGKILL(werr):
		if timedOut.Load() {
			return childTimeout, errBuf.String(), nil
		}
		return childKilled, errBuf.String(), nil
	default:
		return childCompleted, errBuf.String(),
			fmt.Errorf("child exited abnormally (%v); expected clean exit or SIGKILL", werr)
	}
}

// KillChildRequested reports whether this process was spawned as a kill
// child; binaries hosting the campaign (the crashtest CLI, test binaries)
// must call KillChildMain before anything else when it returns true.
func KillChildRequested() bool { return os.Getenv(killChildEnv) != "" }

// KillChildMain is the child-process entry point: attach the file heap, arm
// the self-SIGKILL, run (or recover) the journaled round, exit. It does not
// return.
func KillChildMain() {
	var spec killChildSpec
	if err := json.Unmarshal([]byte(os.Getenv(killSpecEnv)), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "kill child: bad spec: %v\n", err)
		os.Exit(3)
	}
	h, restart, err := pmem.OpenFile(spec.Path,
		pmem.FileOpts{Sync: pmem.SyncMode(spec.Sync), Cfg: pmem.Config{NoCost: true}})
	if err != nil {
		fmt.Fprintf(os.Stderr, "kill child: open %s: %v\n", spec.Path, err)
		os.Exit(3)
	}
	if !restart {
		fmt.Fprintf(os.Stderr, "kill child: %s is not an initialized heap file\n", spec.Path)
		os.Exit(3)
	}
	if spec.Point > 0 {
		// Arm before attaching: constructor-time persistence events are kill
		// candidates too (reattach must be kill-safe at every point).
		h.SetKillAtEvent(spec.Point, selfKill)
	}
	if spec.EpochSab {
		pmem.SetEpochSabotage(true)
	}
	def, ok := LookupKillTarget(spec.Target)
	if !ok {
		fmt.Fprintf(os.Stderr, "kill child: unknown target %q\n", spec.Target)
		os.Exit(3)
	}
	j, err := OpenJournal(h, spec.Threads, spec.Ops*journalFanout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kill child: journal: %v\n", err)
		os.Exit(3)
	}
	t := def.Mk()
	t.Attach(h, spec.Threads, j)

	if spec.Recover {
		if err := t.Recover(); err != nil {
			fmt.Fprintf(os.Stderr, "kill child: recovery: %v\n", err)
			os.Exit(4)
		}
		os.Exit(0)
	}

	if spec.PaceUs > 0 {
		fmt.Println("READY") // timer mode: parent starts its clock here
	}
	round := j.Round()
	var wg sync.WaitGroup
	for tid := 0; tid < spec.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := newGen(spec.Seed*1009+int64(spec.Round), tid, round)
			for g.i = 0; g.i < spec.Ops; g.i++ {
				t.Step(g)
				if spec.PaceUs > 0 {
					time.Sleep(time.Duration(spec.PaceUs) * time.Microsecond)
				}
			}
		}(tid)
	}
	wg.Wait()
	os.Exit(0)
}
