package pcomb

import (
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// One SetProbe on a structure must reach every combining instance it is built
// from: each operation below is served by some inner instance, so the shared
// Comb sink accounts for all of them only if none was skipped, and the span
// log sees one publish per announcement.
func TestProbeReachesEveryInstance(t *testing.T) {
	const threads, keys = 2, 64
	newProbe := func() (core.Probe, *obs.CombStats, *obs.SpanLog) {
		st, spans := obs.NewCombStats(threads), obs.NewSpanLog(threads, 1<<10)
		return core.Probe{Comb: st, Spans: spans}, st, spans
	}
	heap := func() *pmem.Heap { return pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true}) }
	check := func(t *testing.T, st *obs.CombStats, spans *obs.SpanLog, ops, publishes uint64) {
		t.Helper()
		if got := st.Snapshot().CombinedOps; got != ops {
			t.Fatalf("Comb saw %d ops, want %d", got, ops)
		}
		if got := spans.PhaseHist(obs.PhasePublish).Count(); got != publishes {
			t.Fatalf("Spans saw %d publishes, want %d", got, publishes)
		}
	}

	// Each structure below is built from the instances its ops name; one
	// SetProbe must reach all of them, and the zero Probe uninstall it.
	type prober interface{ SetProbe(core.Probe) }
	for _, tc := range []struct {
		name string
		new  func(sys *System) (prober, []func())
	}{
		{"queue", func(sys *System) (prober, []func()) {
			q := sys.NewQueue("q", threads, Blocking)
			return q, []func(){
				func() { q.Enqueue(0, 1) }, // the enqueue instance
				func() { q.Dequeue(1) },    // the dequeue instance
			}
		}},
		{"stack", func(sys *System) (prober, []func()) {
			st := sys.NewStack("s", threads, WaitFree)
			return st, []func(){func() { st.Push(0, 1) }, func() { st.Pop(1) }}
		}},
		{"heap", func(sys *System) (prober, []func()) {
			hp := sys.NewHeap("h", threads, Blocking, 2*keys)
			return hp, []func(){func() { hp.Insert(0, 1) }, func() { hp.DeleteMin(1) }}
		}},
		{"recoverable", func(sys *System) (prober, []func()) {
			r := sys.NewObject("o", threads, WaitFree, core.Counter{})
			return r, []func(){func() { r.Invoke(0, core.OpCounterAdd, 1, 0) }}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ops := tc.new(NewOn(heap()))
			p, st, spans := newProbe()
			s.SetProbe(p)
			for i := 0; i < keys; i++ {
				for _, op := range ops {
					op()
				}
			}
			n := uint64(keys * len(ops))
			check(t, st, spans, n, n)
			s.SetProbe(core.Probe{})
			for _, op := range ops {
				op()
			}
			check(t, st, spans, n, n)
		})
	}

	t.Run("hashmap", func(t *testing.T) {
		m := hashmap.NewWith(heap(), "m", threads, hashmap.WaitFree, hashmap.Options{Shards: 4, VecCap: 4})
		p, st, spans := newProbe()
		m.SetProbe(p)
		hit := make([]bool, m.Shards())
		for k := uint64(1); k <= keys; k++ {
			m.Put(0, k, k)
			hit[m.ShardOf(k)] = true
		}
		for s, ok := range hit {
			if !ok {
				t.Fatalf("no key landed on shard %d", s)
			}
		}
		check(t, st, spans, keys, keys)
		// The submission pipe is an inner instance too: a flush records its
		// resolve span.
		m.SubmitPut(1, 1, 2)
		m.Flush(1)
		if got := spans.PhaseHist(obs.PhaseResolve).Count(); got != 1 {
			t.Fatalf("pipe recorded %d resolve spans, want 1", got)
		}
	})

	for _, flat := range []bool{true, false} {
		name := "fabric-hierarchical"
		if flat {
			name = "fabric-flat"
		}
		t.Run(name, func(t *testing.T) {
			m := hashmap.NewWith(heap(), "f", threads, hashmap.Blocking, hashmap.Options{Shards: 4, Board: !flat, VecCap: 16})
			defer m.Close()
			p, st, spans := newProbe()
			m.SetProbe(p)
			for k := uint64(1); k <= keys; k++ {
				m.Put(int(k)%threads, k, k)
			}
			// A sweeping client announces under its own tid, so hierarchical
			// shards record one publish per announcement like flat ones: each
			// Put here runs alone, so its sweep carries only itself.
			check(t, st, spans, keys, keys)
			// A second SetProbe replaces the first probe's sinks.
			p2, st2, spans2 := newProbe()
			m.SetProbe(p2)
			m.Put(0, 1, 1) // an update: a Get announces nothing for a probe to see
			check(t, st2, spans2, 1, 1)
			check(t, st, spans, keys, keys)
		})
	}
}
