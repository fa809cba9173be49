package crashtest

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"

	"pcomb/internal/pmem"
)

// roundPlan is the crash schedule of one round: the global persistence-event
// index to crash at (0 = run the round to quiescence, then cut power) and
// the adversary deciding the fate of pending write-backs.
type roundPlan struct {
	Point  int64
	Policy pmem.CrashPolicy
}

// FailSpec identifies one crash scenario precisely enough to re-execute it:
// the campaign seed, the failing round, the planned crash point, and the
// crash policy. Its Token form is the one-line reproducer the CLI prints
// and accepts back through -replay.
type FailSpec struct {
	Seed   int64
	Round  int
	Point  int64
	Policy pmem.CrashPolicy
}

// Token renders the spec as "seed:round:point:policy".
func (s FailSpec) Token() string {
	return fmt.Sprintf("%d:%d:%d:%s", s.Seed, s.Round, s.Point, s.Policy)
}

// ParseToken parses a "seed:round:point:policy" reproducer token.
func ParseToken(tok string) (FailSpec, error) {
	parts := strings.Split(tok, ":")
	if len(parts) != 4 {
		return FailSpec{}, fmt.Errorf("crashtest: replay token %q: want seed:round:point:policy", tok)
	}
	seed, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return FailSpec{}, fmt.Errorf("crashtest: bad seed in %q: %v", tok, err)
	}
	round, err := strconv.Atoi(parts[1])
	if err != nil || round < 0 {
		return FailSpec{}, fmt.Errorf("crashtest: bad round in %q", tok)
	}
	point, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil || point < 0 {
		return FailSpec{}, fmt.Errorf("crashtest: bad point in %q", tok)
	}
	pol, ok := pmem.ParseCrashPolicy(parts[3])
	if !ok {
		if n, err := strconv.Atoi(parts[3]); err == nil && n >= 0 && n < pmem.NumCrashPolicies {
			pol = pmem.CrashPolicy(n)
		} else {
			return FailSpec{}, fmt.Errorf("crashtest: bad policy in %q", tok)
		}
	}
	return FailSpec{Seed: seed, Round: round, Point: point, Policy: pol}, nil
}

// Failure is a detectable-recoverability violation plus the schedule that
// produced it.
type Failure struct {
	Target string
	Spec   FailSpec
	Err    error
}

// ErrOrNil flattens the failure into an error (nil receiver → nil), keeping
// the reproducer token in the message.
func (f *Failure) ErrOrNil() error {
	if f == nil {
		return nil
	}
	return fmt.Errorf("%s [replay %s]: %w", f.Target, f.Spec.Token(), f.Err)
}

func (cfg *Config) normalize() {
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
}

// derivePlan derives a fuzz campaign's whole crash schedule from its seed:
// per round a log-uniform crash point (so both very early and very late
// crashes are probable) and a policy from the configured pool. Occasionally
// the point is 0 — a quiescent power cut after the round's budget drains.
// Determinism here is what makes every fuzz failure replayable from a
// four-field token.
func derivePlan(cfg Config) []roundPlan {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed5eed))
	pols := cfg.policies()
	span := int64(cfg.Threads*cfg.Ops) * 16
	if span < 16 {
		span = 16
	}
	plan := make([]roundPlan, cfg.Rounds)
	for r := range plan {
		var pt int64
		if rng.Intn(8) != 0 {
			e := rng.Intn(bits.Len64(uint64(span)))
			base := int64(1) << e
			pt = base + rng.Int63n(base)
		}
		plan[r] = roundPlan{Point: pt, Policy: pols[rng.Intn(len(pols))]}
	}
	return plan
}

// dcPlan derives the nested crash-during-recovery schedule for one round.
// It is keyed on (seed, round, point) so Replay — which re-derives it from
// the token — reproduces the same second crash.
func dcPlan(cfg Config, round int, point int64) (int64, pmem.CrashPolicy) {
	if !cfg.DoubleCrash {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(round)*7919 + point<<17))
	pols := cfg.policies()
	// Recovery replays few operations, so its persistence-event trace is
	// short; land the second crash among the first few dozen events (if
	// recovery finishes earlier, the schedule simply never fires).
	return 1 + rng.Int63n(48), pols[rng.Intn(len(pols))]
}

func crashSeed(seed int64, round int) int64 { return seed*1000003 + int64(round) }

// attemptRecovery re-opens the structure and runs its recovery, catching a
// scheduled second crash. n is the cumulative number of interrupted
// operations resolved this round (the driver's running total, so the caller
// can count across restarted attempts).
func attemptRecovery(h *pmem.Heap, d Driver) (n int, crashed bool) {
	crashed = unwound(func() {
		d.Open(h)
		n = d.Recover()
	})
	return n, crashed
}

// corruptionProbe flips words in the heap's region catalog and demands the
// damage be detected as pmem.ErrCorruptCatalog — never served — then
// reverts the flips and demands the catalog verify clean again.
func corruptionProbe(h *pmem.Heap, cfg Config, round int) error {
	seed := crashSeed(cfg.Seed, round) ^ 0x0bad
	flips := h.CorruptCatalog(seed, 1+int(uint64(seed)%2))
	if cfg.Faults != nil {
		cfg.Faults.Corruptions.Add(uint64(len(flips)))
	}
	err := h.VerifyCatalog()
	if !errors.Is(err, pmem.ErrCorruptCatalog) {
		return fmt.Errorf("injected catalog corruption went undetected (VerifyCatalog: %v)", err)
	}
	if cfg.Faults != nil {
		cfg.Faults.CorruptCaught.Add(uint64(len(flips)))
	}
	h.XorFlips(flips)
	if err := h.VerifyCatalog(); err != nil {
		return fmt.Errorf("catalog dirty after reverting injected corruption: %w", err)
	}
	return nil
}

// runCampaign executes one campaign — a fresh heap and driver, then one
// crash/recover/check cycle per plan entry — and reports the first
// violation with its reproducer spec.
func runCampaign(mk func(seed int64) Driver, cfg Config, plan []roundPlan) (Report, *Failure) {
	d := mk(cfg.Seed)
	h := newShadowHeap()
	rep := Report{Seeds: 1}
	if cfg.DurLin {
		d.EnableDurLin(DurLinOpts{Budget: cfg.DurLinBudget, MaxOps: cfg.DurLinMaxOps})
	}
	fail := func(r int, err error) (Report, *Failure) {
		return rep, &Failure{
			Target: d.Name(),
			Spec:   FailSpec{Seed: cfg.Seed, Round: r, Point: plan[r].Point, Policy: plan[r].Policy},
			Err:    err,
		}
	}

	d.Open(h)
	for r := range plan {
		if cfg.expired() {
			rep.Truncated = true
			break
		}
		p := plan[r]
		d.BeginRound(r)
		before := h.GlobalEvents()
		if p.Point > 0 {
			h.SetCrashAtEvent(p.Point)
		}
		runOps(cfg.Threads, cfg.Ops, func(tid, i int) {
			d.Step(tid, i)
			atomic.AddUint64(&rep.OpsApplied, 1)
		})
		h.TriggerCrash() // quiescent power cut if the schedule never fired
		rep.Events += h.GlobalEvents() - before
		out := h.FinishCrash(p.Policy, crashSeed(cfg.Seed, r))
		rep.Crashes++
		rep.TornLines += out.Torn
		if f := cfg.Faults; f != nil {
			f.Crashes.Add(1)
			f.PendingWBs.Add(uint64(out.Pending))
			f.TornLines.Add(uint64(out.Torn))
		}

		if cfg.Corrupt {
			if err := corruptionProbe(h, cfg, r); err != nil {
				return fail(r, err)
			}
		}

		counted := 0
		if j, dpol := dcPlan(cfg, r, p.Point); j > 0 {
			// Nested crash: arm a second schedule covering re-open and the
			// recovery functions themselves.
			h.SetCrashAtEvent(j)
			n, crashed := attemptRecovery(h, d)
			if crashed {
				rep.Doubles++
				if cfg.Faults != nil {
					cfg.Faults.DoubleCrashes.Add(1)
				}
				h.FinishCrash(dpol, crashSeed(cfg.Seed, r)^0x0ddc0de)
			} else {
				h.SetCrashAtEvent(0)
				rep.Recovered += n - counted
				counted = n
			}
		}
		// Final recovery pass — nothing armed, so it must complete. After a
		// completed first pass this re-runs recovery idempotently.
		n, crashed := attemptRecovery(h, d)
		if crashed {
			return fail(r, fmt.Errorf("crash fired with no schedule armed"))
		}
		rep.Recovered += n - counted

		checked, err := d.CheckHistory()
		if err != nil {
			return fail(r, err)
		}
		if cfg.DurLin {
			if checked {
				rep.HistChecked++
			} else {
				rep.HistSkipped++
			}
		}
		if err := d.Check(); err != nil {
			return fail(r, err)
		}
	}
	return rep, nil
}

// Fuzz runs one seeded sampling campaign: cfg.Rounds crash rounds whose
// points and policies all derive from cfg.Seed.
func Fuzz(mk func(seed int64) Driver, cfg Config) (Report, *Failure) {
	cfg.normalize()
	return runCampaign(mk, cfg, derivePlan(cfg))
}

// Enumerate runs one systematic campaign: it records an uncrashed round's
// persistence-event trace, then replays the round from scratch once per
// event index, crashing exactly there (cycling through the policy pool).
// cfg.Budget caps the number of points (evenly strided when the trace is
// longer); cfg.Deadline stops exploration early. Both mark the report
// truncated.
func Enumerate(mk func(seed int64) Driver, cfg Config) (Report, *Failure) {
	cfg.normalize()
	// Record run: quiescent crash, no extra adversaries — also a sanity
	// check that the uncrashed path passes its own invariants.
	rec := cfg
	rec.Corrupt = false
	rec.DoubleCrash = false
	rep, f := runCampaign(mk, rec, []roundPlan{{Point: 0, Policy: pmem.ApplyAll}})
	if f != nil {
		f.Err = fmt.Errorf("record run (no mid-run crash) failed: %w", f.Err)
		return rep, f
	}
	n := rep.Events

	stride := int64(1)
	if cfg.Budget > 0 && n > int64(cfg.Budget) {
		stride = (n + int64(cfg.Budget) - 1) / int64(cfg.Budget)
		rep.Truncated = true
	}
	pols := cfg.policies()
	for k := int64(1); k <= n; k += stride {
		if cfg.expired() {
			rep.Truncated = true
			break
		}
		plan := []roundPlan{{Point: k, Policy: pols[int(k)%len(pols)]}}
		prep, pf := runCampaign(mk, cfg, plan)
		prep.Seeds = 0 // same campaign, not a new seed
		rep.merge(prep)
		rep.Points++
		if cfg.Faults != nil {
			cfg.Faults.PointsExplored.Add(1)
		}
		if pf != nil {
			return rep, pf
		}
	}
	return rep, nil
}

// Replay re-executes the scenario a token describes: the campaign prefix up
// to the failing round is re-derived from the seed, and the failing round
// uses the token's point and policy. It returns the reproduced violation,
// or nil if the scenario passes.
func Replay(mk func(seed int64) Driver, cfg Config, spec FailSpec) error {
	cfg.normalize()
	cfg.Seed = spec.Seed
	cfg.Rounds = spec.Round + 1
	plan := derivePlan(cfg)
	plan[spec.Round] = roundPlan{Point: spec.Point, Policy: spec.Policy}
	_, f := runCampaign(mk, cfg, plan)
	return f.ErrOrNil()
}

// Shrink reduces a failing schedule to a (locally) minimal reproducer: the
// earliest failing round, then the smallest failing crash point, then the
// simplest failing policy — each candidate confirmed by cfg.Retries
// replays (crash points are exact, but thread interleavings are not, so a
// candidate counts as failing if any replay fails).
func Shrink(mk func(seed int64) Driver, cfg Config, f Failure) FailSpec {
	cfg.normalize()
	spec := f.Spec
	fails := func(s FailSpec) bool {
		for a := 0; a < cfg.Retries; a++ {
			if cfg.expired() {
				return false
			}
			if cfg.Faults != nil {
				cfg.Faults.ShrinkSteps.Add(1)
			}
			if Replay(mk, cfg, s) != nil {
				return true
			}
		}
		return false
	}
	for r := 0; r < spec.Round; r++ {
		s := spec
		s.Round = r
		if fails(s) {
			spec = s
			break
		}
	}
	if spec.Point > 1 {
		for _, c := range pointCandidates(spec.Point) {
			s := spec
			s.Point = c
			if fails(s) {
				spec = s
				break
			}
		}
	}
	for pol := pmem.CrashPolicy(0); pol < spec.Policy; pol++ {
		s := spec
		s.Policy = pol
		if fails(s) {
			spec = s
			break
		}
	}
	return spec
}

// pointCandidates returns smaller crash points to try, ascending: powers of
// two up to p, then p-1.
func pointCandidates(p int64) []int64 {
	var out []int64
	for c := int64(1); c < p; c *= 2 {
		out = append(out, c)
	}
	if p-1 > 0 && (len(out) == 0 || out[len(out)-1] != p-1) {
		out = append(out, p-1)
	}
	return out
}
