package harness

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"pcomb/internal/core"
	"pcomb/internal/hashmap"
	"pcomb/internal/heap"
	"pcomb/internal/pmem"
)

// FigExt runs the extension experiments that go beyond the paper: the
// sharded recoverable hash map (§8's open problem), sparse vs whole-state
// PBheap persistence, and the detectable vs durably-linearizable-only
// PBcomb variants.
func FigExt(cfg Config) []Series {
	var algos []Algo
	for _, shards := range []int{1, 4, 16} {
		shards := shards
		algos = append(algos, Algo{
			Name: fmt.Sprintf("PBmap-%dsh", shards),
			Build: func(cfg Config, n int) (*pmem.Heap, OpFunc) {
				h := newHeap(cfg)
				m := hashmap.New(h, "m", n, hashmap.Blocking, shards, 4096)
				m.SetProbe(cfg.probe())
				return h, func(tid int, i uint64, rng *rand.Rand) {
					key := uint64(rng.Intn(2048)) + 1
					if i%2 == 0 {
						m.Put(tid, key, i)
					} else {
						m.Get(tid, key)
					}
				}
			},
		})
	}
	for _, sparse := range []bool{false, true} {
		sparse := sparse
		name := "PBheap-1024"
		if sparse {
			name = "PBheap-1024-sparse"
		}
		algos = append(algos, Algo{
			Name: name,
			Build: func(cfg Config, n int) (*pmem.Heap, OpFunc) {
				h := newHeap(cfg)
				var hp *heap.Heap
				if sparse {
					hp = heap.NewSparse(h, "h", n, 1024)
				} else {
					hp = heap.New(h, "h", n, heap.Blocking, 1024)
				}
				hp.SetProbe(cfg.probe())
				pre := uint64(512)
				for i := uint64(0); i < pre; i++ {
					hp.Insert(0, i*37%(1<<20), i+1)
				}
				return h, HeapOp(hp, pre)
			},
		})
	}
	for _, durable := range []bool{false, true} {
		durable := durable
		name := "PBcomb-detectable"
		if durable {
			name = "PBcomb-durable-only"
		}
		algos = append(algos, Algo{
			Name: name,
			Build: func(cfg Config, n int) (*pmem.Heap, OpFunc) {
				h := newHeap(cfg)
				var c *core.PBComb
				if durable {
					c = core.NewPBCombDurable(h, "c", n, core.AtomicFloat{Initial: 1})
				} else {
					c = core.NewPBComb(h, "c", n, core.AtomicFloat{Initial: 1})
				}
				c.SetProbe(cfg.probe())
				return h, func(tid int, i uint64, _ *rand.Rand) {
					c.Invoke(tid, core.OpAtomicFloatMul, kMul, 0, i+1)
				}
			},
		})
	}
	return runSweep(cfg, algos)
}

// PrintSeriesCSV renders a figure as CSV — one row per measured point, for
// downstream plotting. The fixed columns cover every persistence
// instruction class; any Extra metrics present across the series (latency
// quantiles, combining stats) become additional columns in sorted key
// order, empty where a point lacks them.
func PrintSeriesCSV(w io.Writer, title string, series []Series) {
	tag := strings.Fields(title)
	name := title
	if len(tag) > 0 {
		name = strings.TrimSuffix(tag[len(tag)-1], ":")
		if len(tag) > 1 {
			name = strings.TrimSuffix(tag[1], ":")
		}
	}
	extraSet := map[string]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			for k := range p.Extra {
				extraSet[k] = true
			}
		}
	}
	extras := make([]string, 0, len(extraSet))
	for k := range extraSet {
		extras = append(extras, k)
	}
	sort.Strings(extras)

	fmt.Fprint(w, "figure,algorithm,threads,mops,pwbs_per_op,pfences_per_op,psyncs_per_op")
	for _, k := range extras {
		fmt.Fprintf(w, ",%s", strings.NewReplacer(",", "_", "/", "_per_").Replace(k))
	}
	fmt.Fprintln(w)
	for _, s := range series {
		pts := append([]Result(nil), s.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].Threads < pts[j].Threads })
		for _, p := range pts {
			fmt.Fprintf(w, "%s,%s,%d,%.4f,%.4f,%.4f,%.4f",
				name, s.Name, p.Threads, p.Mops, p.PwbsPerOp, p.PfencesPerOp, p.PsyncsPerOp)
			for _, k := range extras {
				if v, ok := p.Extra[k]; ok {
					fmt.Fprintf(w, ",%.4f", v)
				} else {
					fmt.Fprint(w, ",")
				}
			}
			fmt.Fprintln(w)
		}
	}
}
