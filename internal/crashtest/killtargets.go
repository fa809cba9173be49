package crashtest

import (
	"pcomb"
	"pcomb/internal/pmem"
)

// KillTarget is a structure under test in the process-kill campaign. Unlike
// Driver (whose state spans simulated crashes inside one process), a
// KillTarget instance lives exactly one heap attach: the child process
// attaches one to run the workload, the verifier attaches a fresh one to the
// reopened file. All cross-process state is durable — in the structure
// itself and in the kill Journal.
type KillTarget interface {
	// Attach creates (first run) or reattaches (restart) the structure for n
	// threads, journaling to j.
	Attach(h *pmem.Heap, n int, j *Journal)
	// Step issues thread g.tid's g.i-th step of the round.
	Step(g *gen)
	// Recover resolves every thread's interrupted operations after a
	// reattach and records their responses in the journal.
	Recover() error
	// Verify judges the round's journal plus the reattached structure's
	// contents against the Spec's model; initial is the previous round's
	// Snapshot. checked is false when the model check was skipped (history
	// too large or budget exhausted) and only the audit ran.
	Verify(initial []uint64, opts DurLinOpts) (checked bool, err error)
	// Snapshot reads the structure's durable contents: the seed for the next
	// round's Verify.
	Snapshot() []uint64
	// Close stops what the structure runs in the background.
	Close()
}

// KillTargetDef names a constructible kill target.
type KillTargetDef struct {
	Name string
	Mk   func() KillTarget
}

// KillTargets returns the process-kill campaign matrix: specs of the
// simulated-crash matrix run against a file-backed heap, plus the server.
// The epoch targets are the harness's sharpest test: on the file-backed heap
// only closed epochs' write-backs reach the mapped shadow, so a SIGKILL
// really does lose the open epoch — the verifier must see every closed-epoch
// completion survive while open-epoch completions are free to vanish. (No
// background ticker: closes happen only at the Sync calls the spec issues, so
// the kill schedule, not wall-clock timing, decides which epochs close.)
func KillTargets() []KillTargetDef {
	var out []KillTargetDef
	add := func(mk func() *Spec) {
		out = append(out, KillTargetDef{mk().Name, func() KillTarget { return &specKT{sp: mk()} }})
	}
	kinds := []pcomb.Kind{pcomb.Blocking, pcomb.WaitFree}
	for _, o := range []pcomb.QueueOptions{{Capacity: killArena}, {Capacity: killArena, Epoch: true}} {
		for _, kind := range kinds {
			add(func() *Spec { return queueSpec(kind, o) })
		}
	}
	for _, kind := range kinds {
		add(func() *Spec { return mapSpec(kind, pcomb.MapOptions{}) })
	}
	// Hierarchical combining shards with cross-shard atomic transactions:
	// recovery must be all-or-nothing whatever the kill point.
	for _, kind := range kinds {
		add(func() *Spec { return fabricSpec(kind) })
	}
	// Durable RESP server over loopback TCP: the child runs an in-process
	// server plus one pipelining client per thread; every command is
	// journaled client-side, so the verifier holds the whole stack — parser,
	// batch scheduler, combining pipe, recovery-on-start — to durable
	// linearizability across real SIGKILLs.
	for _, v := range []struct {
		kind  pcomb.Kind
		epoch bool
	}{{pcomb.Blocking, false}, {pcomb.WaitFree, false}, {pcomb.Blocking, true}} {
		out = append(out, KillTargetDef{newSrvKT(v.kind, v.epoch).sp.Name,
			func() KillTarget { return newSrvKT(v.kind, v.epoch) }})
	}
	return out
}

// LookupKillTarget resolves a target name.
func LookupKillTarget(name string) (KillTargetDef, bool) {
	for _, d := range KillTargets() {
		if d.Name == name {
			return d, true
		}
	}
	return KillTargetDef{}, false
}

// specKT is the KillTarget of every Spec: the structure journals its own
// operations (the Journal is its history log), its Recover reports what the
// kill interrupted, and the Spec's model judges the result.
type specKT struct {
	sp *Spec
	n  int
	h  Handle
	j  *Journal
}

func (t *specKT) Attach(h *pmem.Heap, n int, j *Journal) {
	t.n, t.j = n, j
	t.h = t.sp.Open(h, n)
	t.h.SetHistory(j)
}

func (t *specKT) Step(g *gen) { t.sp.step(t.h, g) }

func (t *specKT) Recover() error {
	// The crash cut comes first: recovery closes epochs.
	t.j.Cut(t.sp.stamp())
	for tid := 0; tid < t.n; tid++ {
		t.h.Recover(tid)
	}
	return nil
}

func (t *specKT) Verify(initial []uint64, opts DurLinOpts) (bool, error) {
	ops, final := t.sp.History(t.j), t.sp.State()
	if err := t.sp.Audit(ops, initial, final); err != nil {
		return true, err
	}
	return t.sp.Check(ops, initial, final, opts, true)
}

func (t *specKT) Snapshot() []uint64 { return t.sp.State() }

func (t *specKT) Close() {
	if c, ok := t.h.(interface{ Close() }); ok {
		c.Close()
	}
}
