package fabric

import (
	"fmt"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
)

// Counter is a sharded recoverable fetch&add counter behind the fabric
// router: thread tid's adds always land on shard tid mod S, so different
// threads contend only within their stripe and the aggregate value is the
// quiescent sum of the stripes. The system area has one class per stripe; a
// thread only ever uses its own stripe's.
type Counter struct {
	n, nsh int
	shards []core.Protocol
	sys    *sysarea.Area
}

// NewCounter creates (or re-opens) a sharded counter for n threads across
// nsh shard stripes (0 = 4).
func NewCounter(h *pmem.Heap, name string, n int, kind Kind, nsh int) *Counter {
	if nsh <= 0 {
		nsh = 4
	}
	if nsh > n {
		nsh = n
	}
	c := &Counter{n: n, nsh: nsh}
	obj := core.Counter{}
	for s := 0; s < nsh; s++ {
		sname := fmt.Sprintf("%s/cshard%d", name, s)
		if kind == WaitFree {
			c.shards = append(c.shards, core.NewPWFCombWith(h, sname, n, obj, core.CombOpts{}))
		} else {
			c.shards = append(c.shards, core.NewPBCombWith(h, sname, n, obj, core.CombOpts{}))
		}
	}
	c.sys = sysarea.New(h, name+"/fabcnt.sys", n, c.shards, nil, 0)
	return c
}

// Shards returns the stripe count.
func (c *Counter) Shards() int { return c.nsh }

func (c *Counter) stripe(tid int) int { return tid % c.nsh }

// Add adds delta to the counter and returns the previous value of tid's
// stripe (a fetch&add within the stripe).
func (c *Counter) Add(tid int, delta uint64) uint64 {
	return c.sys.Invoke(tid, c.stripe(tid), core.OpCounterAdd, delta, 0)
}

// Recover resolves tid's interrupted add — exactly once — and repairs the
// sequence counter (sysarea.Area.Recover); A0 is the delta.
func (c *Counter) Recover(tid int) []sysarea.Resolved { return c.sys.Recover(tid) }

// Value returns the aggregate counter value (sum of stripes). Quiescent use
// only.
func (c *Counter) Value() uint64 {
	var sum uint64
	for _, sh := range c.shards {
		sum += sh.CurrentState().Load(0)
	}
	return sum
}
