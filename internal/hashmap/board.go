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
// sweeper — one try-lock word. Whoever wins claims its own posted request and
// every other one, and announces them to the shard under its own tid as a
// single *delegated* vector (core.Protocol's InvokeDelegated); the others
// wait for their slot to be served. This is the paper's combiner — announce,
// try to take the role, serve everyone announced, itself included — one level
// up, not a server thread: the map starts no goroutine, and a batch forms the
// way the paper's does, out of the posts that land while the previous
// sweeper is inside its psync. The per-shard persistence cost then amortizes
// over the whole swept batch even when each client thread is only mildly
// concurrent with the others, which is exactly the regime where direct
// per-shard combining degrades to degree 1. Responses and deactivate bits are
// credited to the originating threads, the sweeper's own among them, so every
// operation stays detectably recoverable through the ordinary per-thread
// Recover path. Nothing on the way persists: the board and the sweeper's
// announcement block — the same block a scalar Invoke uses, its entries
// naming the originating threads — are volatile, and the swept vector's only
// durable trace is the round's record.

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
// sweeper role, a try-lock a poster takes to serve everything posted.
type board struct {
	inst    core.Protocol
	slots   []bslot
	sweeper prim.PaddedInt32
	// Owned by the thread holding the role.
	dops []core.DelOp
	rets []uint64 // len = the most requests one sweep claims (VecCap)
}

func newBoards(shards []core.Protocol, n, vcap int) []board {
	bs := make([]board, len(shards))
	for s, sh := range shards {
		bs[s] = board{
			inst:  sh,
			slots: make([]bslot, n),
			dops:  make([]core.DelOp, 0, vcap),
			rets:  make([]uint64, vcap),
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
		// One yield per iteration, whatever the shard's thread count: a
		// poster that spins instead measured slower writes end to end
		// (EXPERIMENTS.md "Waiting without the scheduler").
		spins++
		if spins&63 == 0 && m.h.Crashed() {
			// Whoever held this slot or the role has unwound; unwind like
			// any worker so the crash harness can finish the crash and
			// re-open.
			panic(pmem.CrashError{})
		}
		runtime.Gosched()
	}
}

// sweep serves board b as its shard's combiner: the caller, thread tid, holds
// the sweeper role. It claims its own slot first — if an earlier sweeper
// already claimed it, the caller's op is being served and there is nothing
// to announce — then every other posted slot (up to VecCap, scanning on from
// its own), announces them as one delegated vector under tid, and hands each
// response back. There is no linger: the posts that landed while the
// previous sweeper was inside its psync are the batch.
func (m *Map) sweep(b *board, tid int) {
	own := &b.slots[tid]
	if !own.status.CompareAndSwap(slotPosted, slotClaimed) {
		return
	}
	dops := append(b.dops, core.DelOp{Op: own.op, A0: own.a0, A1: own.a1, Tid: tid, Seq: own.seq})
	for i, q := 1, tid; i < len(b.slots) && len(dops) < len(b.rets); i++ {
		if q++; q == len(b.slots) {
			q = 0
		}
		s := &b.slots[q]
		if s.status.Load() == slotPosted && s.status.CompareAndSwap(slotPosted, slotClaimed) {
			dops = append(dops, core.DelOp{Op: s.op, A0: s.a0, A1: s.a1, Tid: q, Seq: s.seq})
		}
	}
	rets := b.rets[:len(dops)]
	b.inst.InvokeDelegated(tid, dops, rets)
	for i := range dops {
		s := &b.slots[dops[i].Tid]
		s.ret = rets[i]
		s.status.Store(slotDone)
	}
}
