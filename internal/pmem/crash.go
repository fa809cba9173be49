package pmem

import "math/rand"

// CrashPolicy chooses which scheduled-but-undrained write-backs survive a
// simulated crash. Everything drained by a pfence or psync is already
// durable; the policy governs only each thread's pending tail (write-backs
// issued since its last fence), which hardware may complete in any order and
// any subset.
type CrashPolicy int

const (
	// DropUnfenced discards every write-back not yet drained by a
	// pfence/psync. This is the most adversarial legal outcome.
	DropUnfenced CrashPolicy = iota
	// ApplyAll persists every scheduled write-back (models caches that
	// happened to evict everything in time).
	ApplyAll
	// RandomCut persists a random subset of each thread's pending tail, in
	// issue order (so a later write-back of the same line wins).
	RandomCut
	// TornLine persists, per pending write-back, either nothing, the whole
	// line, or — the adversarial case — a word-granular prefix or subset of
	// the captured line. Persistence is atomic only at word granularity, so
	// a line still in flight at the power cut may tear mid-line; algorithms
	// must never rely on an unfenced line reaching NVMM in one piece.
	TornLine
)

// NumCrashPolicies is the number of defined crash policies.
const NumCrashPolicies = 4

func (p CrashPolicy) String() string {
	switch p {
	case DropUnfenced:
		return "drop-unfenced"
	case ApplyAll:
		return "apply-all"
	case RandomCut:
		return "random-cut"
	case TornLine:
		return "torn-line"
	}
	return "unknown"
}

// ParseCrashPolicy parses a CrashPolicy's String form.
func ParseCrashPolicy(s string) (CrashPolicy, bool) {
	for p := CrashPolicy(0); p < NumCrashPolicies; p++ {
		if p.String() == s {
			return p, true
		}
	}
	return 0, false
}

// CrashOutcome summarizes what a FinishCrash did to the pending write-backs
// (fault-injection accounting, surfaced through internal/obs).
type CrashOutcome struct {
	Pending int // write-backs pending across all contexts at the crash
	Applied int // applied whole
	Torn    int // applied partially (word-granular prefix/subset)
}

// TriggerCrash makes every subsequent persistence event on every context
// panic with CrashError, so that concurrently running workers unwind.
// Call FinishCrash once all workers have stopped.
func (h *Heap) TriggerCrash() {
	h.crashedFlag.Store(true)
}

// SetCrashAtEvent arranges for the k-th subsequent persistence event —
// counted globally across every context of the heap — to panic with
// CrashError after marking the heap crashed (so all other threads unwind
// too). k <= 0 disarms. This is the deterministic, whole-heap crash
// schedule the systematic crash-point enumeration in internal/crashtest is
// built on; it is only meaningful in ModeShadow.
func (h *Heap) SetCrashAtEvent(k int64) {
	if k <= 0 {
		h.crashAtEvent.Store(0)
		return
	}
	h.crashAtEvent.Store(h.events.Load() + k)
}

// SetKillAtEvent arranges for kill to run at the k-th subsequent global
// persistence event (counted like SetCrashAtEvent). The crashtest kill
// harness installs a function that raises SIGKILL on the calling process, so
// the process really dies — no unwinding, no deferred cleanup — at a
// deterministic, replayable point in the persistence-event stream. A kill
// that returns lets the event go on; it runs at every later event until it
// disarms itself, which single-goroutine tests use to run code at a chosen
// event. Install before workers start; k <= 0 disarms. ModeShadow only.
func (h *Heap) SetKillAtEvent(k int64, kill func()) {
	if k <= 0 {
		h.killAtEvent.Store(0)
		h.killFn = nil
		return
	}
	h.killFn = kill
	h.killAtEvent.Store(h.events.Load() + k)
}

// GlobalEvents returns the total number of persistence events executed on
// this heap across all contexts (ModeShadow only; zero otherwise). Crash
// enumeration records one run's event count and then replays it, crashing
// at every index.
func (h *Heap) GlobalEvents() int64 { return h.events.Load() }

// FinishCrash completes a simulated crash: for each thread context the given
// policy decides which scheduled write-backs become durable, then every
// region's volatile contents are replaced by its durable shadow, pending
// queues are cleared, crash schedules are disarmed, and the heap becomes
// usable again (callers must rebuild all volatile state and run recovery
// functions, exactly as after a real power failure). Only valid in
// ModeShadow. The returned CrashOutcome reports how the adversary treated
// the pending write-backs.
func (h *Heap) FinishCrash(policy CrashPolicy, seed int64) CrashOutcome {
	if h.cfg.Mode != ModeShadow {
		panic("pmem: FinishCrash requires ModeShadow")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	rng := rand.New(rand.NewSource(seed))
	var out CrashOutcome
	for _, c := range h.ctxs {
		out.Pending += len(c.pending)
		applyCrashPolicy(c, policy, rng, &out)
		c.pending = c.pending[:0]
		c.crashAt = 0
	}
	for _, r := range h.byID {
		r.restoreFromShadow(0, len(r.words))
	}
	h.crashAtEvent.Store(0)
	h.crashedFlag.Store(false)
	return out
}

// Crash is TriggerCrash + FinishCrash for single-threaded harnesses.
func (h *Heap) Crash(policy CrashPolicy, seed int64) CrashOutcome {
	h.TriggerCrash()
	return h.FinishCrash(policy, seed)
}

func applyCrashPolicy(c *Ctx, policy CrashPolicy, rng *rand.Rand, out *CrashOutcome) {
	switch policy {
	case DropUnfenced:
		// nothing survives
	case ApplyAll:
		out.Applied += len(c.pending)
		c.drainAll()
	case RandomCut:
		for i := range c.pending {
			if f := &c.pending[i]; rng.Intn(2) == 0 {
				f.r.applyShadowLine(f.line, f.words(), f.seq)
				out.Applied++
			}
		}
	case TornLine:
		for i := range c.pending {
			f := &c.pending[i]
			switch rng.Intn(4) {
			case 0:
				// dropped entirely
			case 1:
				f.r.applyShadowLine(f.line, f.words(), f.seq)
				out.Applied++
			case 2:
				// torn prefix: the line's write-back was cut off mid-line
				k := rng.Intn(f.n)
				f.r.applyShadowWords(f.line, f.words(), uint64(1)<<uint(k)-1, f.seq)
				out.Torn++
			default:
				// arbitrary word subset: word persists are unordered within
				// an unfenced line
				mask := rng.Uint64() & (uint64(1)<<uint(f.n) - 1)
				f.r.applyShadowWords(f.line, f.words(), mask, f.seq)
				out.Torn++
			}
		}
	}
}

// PendingWritebacks reports how many scheduled write-backs are not yet
// durable on this context (test helper).
func (c *Ctx) PendingWritebacks() int {
	return len(c.pending)
}
