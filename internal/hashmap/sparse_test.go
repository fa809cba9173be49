package hashmap

import (
	"fmt"
	"math/rand"
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
)

// mapContents flattens a map's durable pairs for comparison.
func mapContents(m *Map) map[uint64]uint64 {
	out := map[uint64]uint64{}
	m.Range(func(k, v uint64) bool {
		out[k] = v
		return true
	})
	return out
}

// denseTable hides shardObj's SparseObject extension, so an instance over it
// copies and persists the whole table every round.
type denseTable struct{ core.Object }

// TestSparseMatchesDenseMap drives the same random op sequence into a map of
// each kind and into a dense reference — one combining instance per shard
// over denseTable, each key sent to the shard the map sends it to — in rounds
// separated by simulated crashes: every return value must agree, and after
// every crash/re-open the two durable states must hold exactly the same pairs.
func TestSparseMatchesDenseMap(t *testing.T) {
	kinds := []struct {
		name string
		kind Kind
	}{{"PBmap", Blocking}, {"PWFmap", WaitFree}}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			h1, h2 := newHeap(), newHeap()
			seqs := make([]uint64, 4) // the reference shards' thread-0 sequence numbers
			open := func() (*Map, *Map) {
				a := New(h1, "s", 1, k.kind, 4, 4*64)
				b := &Map{slots: a.slots}
				for s := 0; s < a.Shards(); s++ {
					obj, name := denseTable{shardObj{slots: a.slots}}, fmt.Sprintf("d/shard%d", s)
					if k.kind == WaitFree {
						b.shards = append(b.shards, core.NewPWFComb(h2, name, 1, obj))
					} else {
						b.shards = append(b.shards, core.NewPBComb(h2, name, 1, obj))
					}
				}
				return a, b
			}
			a, b := open()
			ref := func(op, key, val uint64) uint64 {
				s := a.ShardOf(key)
				seqs[s]++
				return b.shards[s].Invoke(0, op, key, val, seqs[s])
			}
			rng := rand.New(rand.NewSource(int64(k.kind) + 40))
			for round := 0; round < 4; round++ {
				for i := 0; i < 400; i++ {
					key := rng.Uint64()%96 + 1
					val := rng.Uint64()
					op := []uint64{OpPut, OpGet, OpDel}[rng.Intn(3)]
					if op != OpPut {
						val = 0
					}
					if ra, rb := a.invoke(0, op, key, val), ref(op, key, val); ra != rb {
						t.Fatalf("round %d op %d: sparse returned %d, dense %d", round, i, ra, rb)
					}
				}
				h1.Crash(pmem.DropUnfenced, int64(round)+1)
				h2.Crash(pmem.DropUnfenced, int64(round)+1)
				a, b = open()
				ca, cb := mapContents(a), mapContents(b)
				if len(ca) != len(cb) {
					t.Fatalf("round %d: durable sizes diverge: %d vs %d", round, len(ca), len(cb))
				}
				for key, va := range ca {
					if vb, ok := cb[key]; !ok || vb != va {
						t.Fatalf("round %d: key %d = %d sparse, %d (present=%v) dense",
							round, key, va, vb, ok)
					}
				}
			}
		})
	}
}
