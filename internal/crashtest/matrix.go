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
// must hold: {PBcomb, PWFcomb} x {dense, sparse} x {scalar, vectorized} across
// queue, stack, heap, hash map and register file, plus the two counters, the
// epoch-mode queues and maps, and the sharded fabric.
func MatrixTargets(cfg Config) []Target {
	var out []Target
	n, arena := cfg.Threads, simArena(cfg)
	add := func(mk func() *Spec) {
		out = append(out, Target{Name: mk().Name, Mk: func(seed int64) Driver { return NewDriver(mk(), n, seed) }})
	}
	kinds := []pcomb.Kind{pcomb.Blocking, pcomb.WaitFree}
	each := func(f func(kind pcomb.Kind, alt bool, vecCap int)) {
		for _, kind := range kinds {
			for _, alt := range []bool{false, true} {
				for _, vecCap := range []int{0, specVecCap} {
					f(kind, alt, vecCap)
				}
			}
		}
	}

	for _, kind := range kinds {
		add(func() *Spec { return counterSpec(kind) })
	}
	each(func(kind pcomb.Kind, sparse bool, vecCap int) {
		add(func() *Spec {
			return queueSpec(kind, pcomb.QueueOptions{Capacity: arena, Sparse: sparse, VecCap: vecCap})
		})
	})
	// Epoch-mode relaxed durability: last-open-epoch completions may vanish,
	// closed-epoch completions may not.
	for _, kind := range kinds {
		add(func() *Spec { return queueSpec(kind, pcomb.QueueOptions{Capacity: arena, Epoch: true}) })
	}
	each(func(kind pcomb.Kind, sparse bool, vecCap int) {
		add(func() *Spec {
			return stackSpec(kind, pcomb.StackOptions{Capacity: arena, Sparse: sparse, VecCap: vecCap})
		})
	})
	each(func(kind pcomb.Kind, sparse bool, vecCap int) {
		add(func() *Spec { return heapSpec(kind, pcomb.HeapOptions{Sparse: sparse, VecCap: vecCap}) })
	})
	each(func(kind pcomb.Kind, dense bool, vecCap int) {
		add(func() *Spec { return mapSpec(kind, pcomb.MapOptions{Dense: dense, VecCap: vecCap}) })
	})
	for _, kind := range kinds {
		add(func() *Spec { return mapSpec(kind, pcomb.MapOptions{Epoch: true}) })
	}
	each(func(kind pcomb.Kind, dense bool, vecCap int) {
		add(func() *Spec { return registerSpec(kind, dense, vecCap) })
	})
	for _, kind := range kinds {
		add(func() *Spec { return fabricSpec(kind) })
	}
	return out
}
