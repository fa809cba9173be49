// Package history records per-thread invocation/response event logs from the
// recoverable data structures, for durable-linearizability checking.
//
// A Recorder is installed opt-in through a structure's SetHistory (it is the
// in-process implementation of sysarea.Log; the unrecorded fast path costs
// one branch).
// Each operation appears as an invocation event (Begin) and, if the thread
// observed its response before the crash, a response event (End). Timestamps
// come from one global monotone logical clock, so they totally order all
// events in the run. A crash leaves trailing operations of each thread
// pending; the recovery functions' results are folded back in with Resolve,
// which marks the oldest pending operation of the thread as recovered with
// the response recovery reported. The checker (internal/linearizability)
// gives the three fates their durable-linearizability meaning: completed
// operations must linearize within their recorded interval, recovered
// operations must linearize exactly once with the recovered response, and
// operations still pending may linearize or vanish.
//
// Begin/End are called only by the owning thread; Cut, Resolve and Ops are
// called from the (single-threaded) recovery and checking phases. The only
// shared mutable state on the hot path is the logical clock.
package history

import (
	"sync/atomic"

	lin "pcomb/internal/linearizability"
)

// Recorder collects one round's history across threads.
type Recorder struct {
	clock atomic.Int64
	logs  []threadLog

	// cut is set by the round's first Cut; stamp is the durably closed epoch
	// that call reported.
	cut   bool
	stamp uint64

	// epochClock, when set, labels each completed operation with the open
	// epoch at response time (epoch-mode relaxed durability). Read AFTER the
	// response so the label lower-bounds the close that persists the op.
	epochClock func() uint64
}

// SetEpochClock installs the epoch labeler (pmem.Epoch.Now). Install while
// quiescent, before recording.
func (r *Recorder) SetEpochClock(clock func() uint64) { r.epochClock = clock }

// threadLog is one thread's append-only event log. done counts operations
// whose fate is settled (completed or recovered); ops[done:] are pending.
// The padding keeps neighboring threads' logs off each other's cache lines.
type threadLog struct {
	ops  []lin.Op
	done int
	_    [4]uint64
}

// New creates a recorder for n threads.
func New(n int) *Recorder {
	return &Recorder{logs: make([]threadLog, n)}
}

// Begin records the invocation of one operation by tid. A vectorized
// announcement records one Begin per operation, in ring order, before the
// vector is published.
func (r *Recorder) Begin(tid int, kind, a0, a1 uint64) {
	l := &r.logs[tid]
	l.ops = append(l.ops, lin.Op{
		Thread: tid,
		Call:   r.clock.Add(1),
		Status: lin.StatusPending,
		Kind:   kind,
		Arg:    a0,
		Arg2:   a1,
	})
}

// End records the response of tid's oldest outstanding operation (operations
// complete in invocation order within a thread, scalar or vectorized).
func (r *Recorder) End(tid int, out uint64) {
	l := &r.logs[tid]
	if l.done >= len(l.ops) {
		return // End without Begin: recorder installed mid-operation
	}
	op := &l.ops[l.done]
	op.Return = r.clock.Add(1)
	op.Out = out
	op.Status = lin.StatusCompleted
	if r.epochClock != nil {
		op.Epoch = r.epochClock()
	}
	l.done++
}

// Cut marks the crash. stamp is the structure's durably closed epoch as the
// FIRST re-open after the crash finds it (0 in strict mode): Ops then
// downgrades every completed operation labeled with a later epoch to
// StatusVolatile — the checker lets it keep its effect or vanish, the epoch
// mode's bounded loss window. Only the round's first call counts: a second
// crash during recovery does not move the cut, and recovery's own closes
// advance the stamp past epochs whose buffered write-backs died with the
// crash. Operations with label 0 (strict mode, or recorded before an epoch
// clock was installed) are never downgraded.
func (r *Recorder) Cut(stamp uint64) {
	if !r.cut {
		r.cut, r.stamp = true, stamp
	}
}

// Resolve marks tid's oldest pending operation as recovered with the
// response its recovery function reported. It reports false when the thread
// has no pending operation (recovery found nothing in flight).
func (r *Recorder) Resolve(tid int, out uint64) bool {
	l := &r.logs[tid]
	if l.done >= len(l.ops) {
		return false
	}
	op := &l.ops[l.done]
	op.Out = out
	op.Status = lin.StatusRecovered
	l.done++
	return true
}

// Pending returns how many operations of tid are still unresolved.
func (r *Recorder) Pending(tid int) int {
	l := &r.logs[tid]
	return len(l.ops) - l.done
}

// Len returns the total number of recorded operations.
func (r *Recorder) Len() int {
	n := 0
	for i := range r.logs {
		n += len(r.logs[i].ops)
	}
	return n
}

// Ops snapshots the recorded history (quiescent use only). Operations still
// pending keep StatusPending — the checker lets them linearize or vanish —
// and completions past the crash cut's epoch stamp read StatusVolatile.
func (r *Recorder) Ops() []lin.Op {
	out := make([]lin.Op, 0, r.Len())
	for i := range r.logs {
		out = append(out, r.logs[i].ops...)
	}
	if r.cut {
		for i := range out {
			if out[i].Status == lin.StatusCompleted && out[i].Epoch > r.stamp {
				out[i].Status = lin.StatusVolatile
			}
		}
	}
	return out
}
