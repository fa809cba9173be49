// Package crashtest subjects the recoverable data structures to simulated
// mid-execution crashes and verifies detectable recoverability:
//
//   - every operation that completed before the crash keeps its effect and
//     response (durability);
//   - every interrupted operation is resolved exactly once by its recovery
//     function — its effect appears either never or once, never twice
//     (detectability);
//   - what every round is audited for, whatever its size, holds: the value
//     multiset is conserved, idle cells keep their values, the counter moved
//     by the adds that took effect, the heap is in heap order, the fabric's
//     accounts sum to zero (FIFO/LIFO/priority order of the residue is the
//     model check's, which runs on every round of a Keyed model and under
//     DurLin, on rounds small enough, of a Whole one).
//
// A structure enters the suite as a Spec (spec.go, specs.go): its
// constructor, a seeded operation table and its sequential model. One generic
// Driver runs any Spec under the two simulated-crash engines, and one generic
// KillTarget under the process-kill engine (kill.go); all three go through
// the structure's public API and its system area, like any caller.
//
//   - Fuzz samples crash schedules: each round crashes at a seeded,
//     log-uniformly drawn global persistence-event index under a seeded
//     adversary (drop-unfenced / apply-all / random-cut / torn-line), so a
//     whole campaign is reproducible from its seed alone.
//   - Enumerate is systematic (ALICE-style): it records one run's
//     persistence-event trace, then replays the run once per event index,
//     crashing exactly there — exhaustive crash-point coverage, bounded by
//     an optional budget.
//
// Both simulated engines optionally trigger a second crash while the recovery
// functions themselves are replaying (proving recovery idempotence), and
// inject corruption into the heap's region catalog (which must be detected
// as pmem.ErrCorruptCatalog, never served as garbage). Any
// failing schedule is shrunk to a minimal reproducer and printed as a
// one-line seed:round:point:policy token that Replay re-executes.
//
// The package is both a test library and the engine of cmd/pcomb-crashtest.
package crashtest

import (
	"fmt"
	"sync"
	"time"

	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// Driver is one structure/protocol target as the simulated-crash engines see
// it. NewDriver builds the one implementation from a Spec; the interface
// remains so a test can wrap a driver with a planted bug.
type Driver interface {
	// Name identifies the target (e.g. "queue/PBqueue").
	Name() string
	// Open creates or re-opens the structure on h, rebuilding all volatile
	// state — called once at campaign start and again after every crash
	// (it may issue persistence events and thus crash again).
	Open(h *pmem.Heap)
	// BeginRound starts a round: a fresh history, the round-start contents,
	// the per-thread operation generators.
	BeginRound(round int)
	// Step runs thread tid's i-th step of the round. It panics with
	// pmem.CrashError when the heap crashes mid-operation.
	Step(tid, i int)
	// Recover resolves every thread's interrupted operations through the
	// structure's Recover and returns how many it has resolved this round.
	// If a second crash unwinds it (panic with pmem.CrashError), calling it
	// again after Open finishes the job.
	Recover() (recovered int)
	// Check is the always-on audit of the structure's durable state against
	// the round's history.
	Check() error
	// EnableDurLin turns the durable-linearizability check on for every
	// model; without it only models cheap at any round size are checked.
	EnableDurLin(DurLinOpts)
	// CheckHistory validates the round's recorded history against the model.
	// checked is false when the check was skipped (not enabled, history too
	// large, or the work budget ran out before the search settled).
	CheckHistory() (checked bool, err error)
}

// Report summarizes one crash-testing campaign.
type Report struct {
	Seeds       int
	Crashes     int
	Recovered   int // interrupted operations resolved via recovery functions
	OpsApplied  uint64
	Points      int   // crash points explored (enumerate)
	Doubles     int   // nested crash-during-recovery rounds survived
	TornLines   int   // cache lines the adversary persisted partially
	Events      int64 // persistence events observed (enumerate record run)
	HistChecked int   // rounds whose recorded history passed the durable-lin checker
	HistSkipped int   // rounds whose history check was skipped (size or budget)
	Truncated   bool  // a budget or deadline cut exploration short
}

func (r Report) String() string {
	s := fmt.Sprintf("seeds=%d crashes=%d recovered-ops=%d ops=%d",
		r.Seeds, r.Crashes, r.Recovered, r.OpsApplied)
	if r.Points > 0 {
		s += fmt.Sprintf(" points=%d", r.Points)
	}
	if r.Doubles > 0 {
		s += fmt.Sprintf(" double-crashes=%d", r.Doubles)
	}
	if r.TornLines > 0 {
		s += fmt.Sprintf(" torn-lines=%d", r.TornLines)
	}
	if r.HistChecked > 0 || r.HistSkipped > 0 {
		s += fmt.Sprintf(" histories=%d", r.HistChecked)
		if r.HistSkipped > 0 {
			s += fmt.Sprintf(" hist-skipped=%d", r.HistSkipped)
		}
	}
	if r.Truncated {
		s += " (truncated)"
	}
	return s
}

func (r *Report) merge(o Report) {
	r.Seeds += o.Seeds
	r.Crashes += o.Crashes
	r.Recovered += o.Recovered
	r.OpsApplied += o.OpsApplied
	r.Points += o.Points
	r.Doubles += o.Doubles
	r.TornLines += o.TornLines
	r.Events += o.Events
	r.HistChecked += o.HistChecked
	r.HistSkipped += o.HistSkipped
	r.Truncated = r.Truncated || o.Truncated
}

// Merge adds another report's counters into r (CLI aggregation).
func (r *Report) Merge(o Report) { r.merge(o) }

// Config parameterizes a campaign. The zero value is not usable; fill in
// Threads, Ops, Rounds and Seed at least.
type Config struct {
	Threads int   // worker goroutines
	Ops     int   // operation budget per thread per round
	Rounds  int   // crash rounds per campaign (fuzz mode)
	Seed    int64 // campaign seed; the entire schedule derives from it

	Torn        bool // include the torn-line adversary in the policy pool
	Corrupt     bool // inject catalog corruption each round and require detection
	DoubleCrash bool // trigger second crashes while recovery replays

	Budget   int       // enumerate: max crash points per campaign (0 = all)
	Deadline time.Time // stop starting new work past this instant (zero = none)
	Retries  int       // confirmation replays per shrink candidate (default 2)

	// DurLin turns on durable-linearizability checking for every target and
	// counts the verdicts in the report: each round's pre-crash history,
	// recovered responses, and a post-recovery state audit are validated
	// against the structure's sequential model under crash-cut semantics.
	// Without it the always-on audit still runs, and Keyed models get this
	// same check regardless.
	DurLin       bool
	DurLinBudget int64 // checker step budget per round (0 = default)
	DurLinMaxOps int   // skip non-partitionable checks beyond this many ops (0 = default)

	Faults *obs.FaultStats // optional shared fault-injection counters
}

func (cfg Config) policies() []pmem.CrashPolicy {
	p := []pmem.CrashPolicy{pmem.DropUnfenced, pmem.ApplyAll, pmem.RandomCut}
	if cfg.Torn {
		p = append(p, pmem.TornLine)
	}
	return p
}

func (cfg Config) expired() bool {
	return !cfg.Deadline.IsZero() && time.Now().After(cfg.Deadline)
}

// newShadowHeap creates the simulated NVMM device a campaign runs on.
func newShadowHeap() *pmem.Heap {
	return pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
}

// unwound runs f and reports whether a simulated crash unwound it (a panic
// with pmem.CrashError; any other panic passes through).
func unwound(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(pmem.CrashError); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// runOps drives `threads` workers, each issuing up to `ops` operations; a
// worker stops early when the heap crashes under it (step panics with
// pmem.CrashError). The crash instant itself is scheduled by the caller
// through h.SetCrashAtEvent — there is no wall-clock dependence, so a
// round's crash point is reproducible from the campaign seed.
func runOps(threads, ops int, step func(tid, i int)) {
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				if unwound(func() { step(tid, i) }) {
					return
				}
			}
		}(tid)
	}
	wg.Wait()
}
