package crashtest

import "pcomb"

// Target couples a stable name with a driver factory, so test tables and the
// CLI can sweep the full correctness matrix without repeating constructor
// plumbing. The name always equals the driver's Name().
type Target struct {
	Name string
	Mk   func(seed int64) Driver
}

// MatrixTargets enumerates the full simulated-crash correctness matrix for
// campaigns of cfg's shape — Threads, and the Ops x Rounds the node arenas
// must hold: {PBcomb, PWFcomb} x {scalar, vectorized} across queue, stack and
// heap (dense objects) and hash map and register file (sparse ones), plus the
// two counters, the epoch-mode queues and maps, and the sharded fabric.
func MatrixTargets(cfg Config) []Target {
	var out []Target
	n, arena := cfg.Threads, simArena(cfg)
	add := func(mk func() *Spec) {
		out = append(out, Target{Name: mk().Name, Mk: func(seed int64) Driver { return NewDriver(mk(), n, seed) }})
	}
	kinds := []pcomb.Kind{pcomb.Blocking, pcomb.WaitFree}
	each := func(f func(kind pcomb.Kind, vecCap int) *Spec) {
		for _, kind := range kinds {
			for _, vecCap := range []int{0, specVecCap} {
				add(func() *Spec { return f(kind, vecCap) })
			}
		}
	}

	for _, kind := range kinds {
		add(func() *Spec { return counterSpec(kind) })
	}
	each(func(kind pcomb.Kind, vecCap int) *Spec {
		return queueSpec(kind, pcomb.QueueOptions{Capacity: arena, VecCap: vecCap})
	})
	// Epoch-mode relaxed durability: last-open-epoch completions may vanish,
	// closed-epoch completions may not.
	for _, kind := range kinds {
		add(func() *Spec { return queueSpec(kind, pcomb.QueueOptions{Capacity: arena, Epoch: true}) })
	}
	each(func(kind pcomb.Kind, vecCap int) *Spec {
		return stackSpec(kind, pcomb.StackOptions{Capacity: arena, VecCap: vecCap})
	})
	each(func(kind pcomb.Kind, vecCap int) *Spec {
		return heapSpec(kind, pcomb.HeapOptions{VecCap: vecCap})
	})
	each(func(kind pcomb.Kind, vecCap int) *Spec {
		return mapSpec(kind, pcomb.MapOptions{VecCap: vecCap})
	})
	for _, kind := range kinds {
		add(func() *Spec { return mapSpec(kind, pcomb.MapOptions{Epoch: true}) })
	}
	each(registerSpec)
	for _, kind := range kinds {
		add(func() *Spec { return fabricSpec(kind) })
	}
	return out
}
