package crashtest

import (
	"pcomb/internal/history"
	"pcomb/internal/pmem"
)

// DurLinOpts parameterizes per-round durable-linearizability checking.
type DurLinOpts struct {
	// Budget caps the checker's step attempts per round (0 = a default
	// generous enough for the suite's round sizes).
	Budget int64
	// MaxOps skips the check for Whole models (queue, stack, heap, counter)
	// when a round recorded more operations than this — the search is
	// exponential in the worst case, and a skipped round is counted in the
	// report rather than hidden. Keyed models (map, register, fabric) are
	// always checked. 0 = default.
	MaxOps int
}

// DefaultDurLinMaxOps bounds Whole-model per-round history sizes; at the
// suite's thread counts the memoized search settles such rounds well inside
// the step budget.
const DefaultDurLinMaxOps = 160

// driver is the Driver of every simulated-crash target: a Spec, one history
// recorder per round, and nothing else. It keeps no record of what the
// threads were doing — after a crash the structure's own Recover is the only
// source of what was in flight, exactly as for a real caller — and no model
// beyond the recorded history and the contents at round start.
type driver struct {
	sp   *Spec
	n    int
	seed int64

	h         Handle
	rec       *history.Recorder // this round's history; nil before the first round
	gens      []*gen
	initial   []uint64 // contents at round start
	recovered int      // operations Recover resolved this round

	durOn bool
	dur   DurLinOpts
}

// NewDriver builds the simulated-crash target of sp for n threads.
func NewDriver(sp *Spec, n int, seed int64) Driver {
	return &driver{sp: sp, n: n, seed: seed}
}

func (d *driver) Name() string { return d.sp.Name }

func (d *driver) Open(h *pmem.Heap) {
	d.h = d.sp.Open(h, d.n)
	if d.rec != nil {
		// A re-open after a crash: the first one of the round fixes the crash
		// cut, before recovery's own epoch closes move the stamp.
		d.h.SetHistory(d.rec)
		d.rec.Cut(d.sp.stamp())
	}
}

func (d *driver) BeginRound(round int) {
	d.rec = history.New(d.n)
	d.h.SetHistory(d.rec)
	d.initial = d.sp.State()
	d.gens = make([]*gen, d.n)
	for tid := range d.gens {
		d.gens[tid] = newGen(d.seed*7919+int64(round), tid, uint64(round))
	}
	d.recovered = 0
}

func (d *driver) Step(tid, i int) {
	g := d.gens[tid]
	g.i = i
	d.sp.step(d.h, g)
}

// Recover is restartable by construction: the system area closes a thread's
// record only once its operation is resolved, so after a second crash the
// threads already resolved report nothing and the interrupted one is resolved
// now — each operation is counted, and reported to the history, once.
func (d *driver) Recover() int {
	for tid := 0; tid < d.n; tid++ {
		d.recovered += len(d.h.Recover(tid))
	}
	return d.recovered
}

func (d *driver) Check() error {
	return d.sp.Audit(d.sp.History(d.rec), d.initial, d.sp.State())
}

func (d *driver) EnableDurLin(o DurLinOpts) { d.durOn, d.dur = true, o }

func (d *driver) CheckHistory() (bool, error) {
	return d.sp.Check(d.sp.History(d.rec), d.initial, d.sp.State(), d.dur, d.durOn)
}
