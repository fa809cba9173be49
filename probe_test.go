package pcomb

import (
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
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

	t.Run("queue", func(t *testing.T) {
		q := queue.New(heap(), "q", threads, queue.Blocking, queue.Options{})
		p, st, spans := newProbe()
		q.SetProbe(p)
		for i := uint64(1); i <= keys; i++ {
			q.Enqueue(0, i, i) // the enqueue instance
			q.Dequeue(1, i)    // the dequeue instance
		}
		check(t, st, spans, 2*keys, 2*keys)
		q.SetProbe(core.Probe{})
		q.Enqueue(0, 1, keys+1)
		check(t, st, spans, 2*keys, 2*keys)
	})

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
			// Hierarchical shards are driven by a sweeping client under tid n,
			// which has no track in a client-sized span log: no shard-level
			// spans there.
			publishes := uint64(keys)
			if !flat {
				publishes = 0
			}
			check(t, st, spans, keys, publishes)
			// A second SetProbe replaces the first probe's sinks.
			p2, st2, spans2 := newProbe()
			m.SetProbe(p2)
			m.Put(0, 1, 1) // an update: a Get announces nothing for a probe to see
			check(t, st2, spans2, 1, publishes/keys)
			check(t, st, spans, keys, publishes)
		})
	}
}
