package hashmap

import (
	"runtime"
	"sync/atomic"

	"pcomb/internal/core"
	"pcomb/internal/pmem"
	"pcomb/internal/prim"
)

// Hierarchical combining (Options.Board). Instead of every thread announcing
// directly to its key's shard (and paying one announce handshake plus one
// chance at becoming combiner per op), a thread posts its request on the
// shard's volatile posting board and then tries to become the board's
// sweeper — one try-lock word. Whoever wins claims every posted request, its
// own among them, and announces them to the shard as a single *delegated*
// vector (core.CombOpts.Delegate); the others wait for their slot to be
// served. This is the paper's combiner — announce, try to take the role,
// serve everyone announced — one level up, not a server thread: the map starts
// no goroutine, and a batch forms the way the paper's does, out of the posts
// that land while the previous sweeper is inside its psync. The per-shard
// persistence cost then amortizes over the whole swept batch even when each
// client thread is only mildly concurrent with the others, which is exactly
// the regime where direct per-shard combining degrades to degree 1. Responses
// and deactivate bits are credited to the originating threads, so every
// operation stays detectably recoverable through the ordinary per-thread
// Recover path; the board itself is volatile and needs no recovery.

// Board slot states.
const (
	slotEmpty uint32 = iota
	slotPosted
	slotClaimed
	slotDone
)

// selfServeSpins is how long a poster waits to be served before reclaiming
// its slot and invoking the shard itself: it bounds a poster's wait when the
// thread holding the sweeper role is preempted.
const selfServeSpins = 1 << 14

// bslot is one posting-board entry, padded to its own cache line. The owner
// thread writes the request fields and then status (atomic store = release);
// the sweeper's status load acquires them. ret flows back the same way.
type bslot struct {
	op, a0, a1, seq uint64
	ret             uint64
	status          atomic.Uint32
	_               [20]byte
}

// board is one shard's posting board: a slot per client thread and the
// sweeper role, a try-lock a poster takes to serve everything posted. The
// shard instances are built one thread wider than the map, and whoever holds
// the role announces under that extra tid (ctid = n); seq is ctid's
// announcement sequence number.
type board struct {
	inst    core.DelegateProtocol
	slots   []bslot
	sweeper prim.PaddedInt32
	// Owned by the thread holding the role.
	seq  uint64
	dops []core.DelOp
	rets []uint64 // len = the most requests one sweep claims (VecCap)
}

func newBoards(shards []core.Protocol, n, vcap int) []board {
	bs := make([]board, len(shards))
	for s, sh := range shards {
		bs[s] = board{
			inst:  sh.(core.DelegateProtocol),
			slots: make([]bslot, n),
			// ctid's announcement parity chain must survive re-open: seed from
			// the durable deactivate bit so the first sweep flips it.
			seq:  sh.(core.EpochCapable).DeactParity(n),
			dops: make([]core.DelOp, 0, vcap),
			rets: make([]uint64, vcap),
		}
	}
	return bs
}

// perform runs one durably recorded operation on a board map: it posts to the
// shard's board and then, until the slot is served, tries to become the
// board's sweeper (self-serving after a bounded wait).
func (m *Map) perform(tid, sh int, op, key, val, seq uint64) uint64 {
	b := &m.boards[sh]
	s := &b.slots[tid]
	s.op, s.a0, s.a1, s.seq = op, key, val, seq
	s.status.Store(slotPosted)
	spins := 0
	for {
		switch s.status.Load() {
		case slotDone:
			ret := s.ret
			s.status.Store(slotEmpty)
			return ret
		case slotPosted:
			if b.sweeper.V.Load() == 0 && b.sweeper.V.CompareAndSwap(0, 1) {
				// A CrashError unwinding the sweep leaves the role held. That
				// is correct: the boards are volatile and NewWith rebuilds
				// them, and until then every waiter sees h.Crashed() and
				// unwinds.
				m.sweep(b, tid)
				b.sweeper.V.Store(0)
				continue
			}
			if spins > selfServeSpins && s.status.CompareAndSwap(slotPosted, slotEmpty) {
				return b.inst.Invoke(tid, op, key, val, seq)
			}
		}
		spins++
		if spins&63 == 0 {
			if m.h.Crashed() {
				// Whoever held this slot or the role has unwound; unwind like
				// any worker so the crash harness can finish the crash and
				// re-open.
				panic(pmem.CrashError{})
			}
			runtime.Gosched()
		} else {
			prim.Pause()
		}
	}
}

// sweep serves board b as its shard's combiner: the caller, thread tid, holds
// the sweeper role. It claims every posted slot (up to VecCap, scanning from
// its own so that one is among them), announces them as one delegated vector
// under ctid, and hands each response back. There is no linger: the posts
// that landed while the previous sweeper was inside its psync are the batch.
func (m *Map) sweep(b *board, tid int) {
	dops := b.dops
	q := tid
	for range b.slots {
		s := &b.slots[q]
		if s.status.Load() == slotPosted && s.status.CompareAndSwap(slotPosted, slotClaimed) {
			dops = append(dops, core.DelOp{Op: s.op, A0: s.a0, A1: s.a1, Tid: q, Seq: s.seq})
			if len(dops) == len(b.rets) {
				break
			}
		}
		if q++; q == len(b.slots) {
			q = 0
		}
	}
	if len(dops) == 0 {
		return // a previous sweeper served this thread on its way out
	}
	rets := b.rets[:len(dops)]
	b.seq++
	b.inst.InvokeDelegated(m.n, b.seq, dops, rets)
	for i := range dops {
		s := &b.slots[dops[i].Tid]
		s.ret = rets[i]
		s.status.Store(slotDone)
	}
}

// tidClamp adapts an external per-thread stats sink sized for the n client
// threads to a board map's extra sweeper tid (ctid = n, whoever holds a
// board's role): its events are credited to the last client stripe. Only
// exported aggregates are consumed from these sinks, so the re-attribution is
// invisible.
type tidClamp struct {
	t   core.CombTracker
	max int
}

func (c tidClamp) tid(t int) int {
	if t > c.max {
		return c.max
	}
	return t
}
func (c tidClamp) Round(tid, degree int) { c.t.Round(c.tid(tid), degree) }
func (c tidClamp) Helped(tid int)        { c.t.Helped(c.tid(tid)) }
func (c tidClamp) LockFail(tid int)      { c.t.LockFail(c.tid(tid)) }
func (c tidClamp) SCFail(tid int)        { c.t.SCFail(c.tid(tid)) }
func (c tidClamp) Copied(tid, words int) { c.t.Copied(c.tid(tid), words) }
func (c tidClamp) BatchSize(tid, sz int) { c.t.BatchSize(c.tid(tid), sz) }

// shardProbe adapts a probe sized for the n client threads to the shard
// instances. A direct map's shards take it as it is. A board map's shards are
// built for n+1: the sweeper tid's events are clamped into the last client
// stripe of p.Comb, and no spans are recorded at the shard level, since a
// sweeping client drives the shard as tid n, which has no track in a log sized
// for the client threads — the caller's whole-op spans still cover the client
// side.
func (m *Map) shardProbe(p core.Probe) core.Probe {
	if m.boards == nil {
		return p
	}
	if p.Comb != nil {
		p.Comb = tidClamp{t: p.Comb, max: m.n - 1}
	}
	p.Spans = nil
	return p
}

// SetProbe installs p on every shard's combining instance and on the
// submission pipe (they share its sinks, so stats aggregate across shards and
// a thread's span track interleaves spans from all shards it touched). The
// sinks may be sized for the client thread count.
func (m *Map) SetProbe(p core.Probe) {
	if m.pipe != nil {
		m.pipe.SetProbe(p)
	}
	p = m.shardProbe(p)
	for _, sh := range m.shards {
		sh.SetProbe(p)
	}
}
