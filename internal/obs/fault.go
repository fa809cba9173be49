package obs

import (
	"fmt"
	"sync/atomic"
)

// FaultStats aggregates fault-injection counters across a crash-testing
// campaign: how many crash points were explored, how the adversaries
// treated pending write-backs, and how often the harder scenarios (nested
// crash-during-recovery, durable-media corruption) were exercised. The
// crashtest engines add into one shared instance; the CLI prints it so a
// campaign's coverage is visible, not just its verdict.
type FaultStats struct {
	Crashes        atomic.Uint64 // simulated power failures completed
	PointsExplored atomic.Uint64 // enumerated crash points replayed
	PendingWBs     atomic.Uint64 // write-backs pending at crashes
	TornLines      atomic.Uint64 // cache lines persisted partially (torn)
	DoubleCrashes  atomic.Uint64 // second crashes fired during recovery
	Corruptions    atomic.Uint64 // corruption injections into durable state
	CorruptCaught  atomic.Uint64 // corruptions detected by region-catalog checks
	ShrinkSteps    atomic.Uint64 // replays spent shrinking failing schedules
}

// Snapshot returns the counters as a name→value map (expvar/JSON friendly).
func (f *FaultStats) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"crashes":         f.Crashes.Load(),
		"points-explored": f.PointsExplored.Load(),
		"pending-wbs":     f.PendingWBs.Load(),
		"torn-lines":      f.TornLines.Load(),
		"double-crashes":  f.DoubleCrashes.Load(),
		"corruptions":     f.Corruptions.Load(),
		"corrupt-caught":  f.CorruptCaught.Load(),
		"shrink-steps":    f.ShrinkSteps.Load(),
	}
}

func (f *FaultStats) String() string {
	return fmt.Sprintf("crashes=%d points=%d pending-wbs=%d torn-lines=%d double-crashes=%d corruptions=%d/%d shrink-steps=%d",
		f.Crashes.Load(), f.PointsExplored.Load(), f.PendingWBs.Load(), f.TornLines.Load(),
		f.DoubleCrashes.Load(), f.CorruptCaught.Load(), f.Corruptions.Load(), f.ShrinkSteps.Load())
}
