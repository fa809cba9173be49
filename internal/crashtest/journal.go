package crashtest

import (
	"fmt"
	"sync/atomic"

	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
)

// Journal is the history log of the process-kill engine: the same
// invocation/response log history.Recorder keeps in memory, kept in the
// file-backed heap instead, so it survives the SIGKILL that ends the process
// writing it. A kill target installs it on the structure with SetHistory and
// the structure's system area does the journaling: Begin durably commits the
// operation's record (kind, arguments, an invocation stamp) before the
// operation's first durable store, End durably records the response after its
// last. A kill at any point therefore leaves each thread's interrupted
// operations as trailing open records, and the verifier can rebuild a
// durable-linearizability history for the whole round from the file alone,
// with no cooperation from the dead process. Which of the open records the
// structure had really begun, and with which sequence number, is the
// structure's own knowledge — Recover reports it through Resolve.
//
// All journal writes are DirectStore: like the system area, the journal is
// state the paper's system model has the platform persist on the algorithms'
// behalf, so it is durable without fences and exempt from pwb accounting.
//
// Layout (words): one header line [magic, threads, cap, round, cutRound,
// cutStamp] (the cut pair backs Cut), then per thread one line [count]
// followed by cap fixed-stride records
// [kind, a0, a1, call, ret, out, state|epoch<<16].
//
// The epoch field (written by End) is the structure's open-epoch label read
// after the operation returned. Ops uses it to split completed records at the
// crash cut: a record whose epoch exceeds the cut stamp completed only
// volatile — its effect may have vanished with the kill — while records of
// closed epochs must survive. Strict targets leave it zero.
//
// Begin's commit point is the count increment: record fields are written
// first, so a kill mid-Begin leaves the record invisible — the structure was
// not yet invoked, nothing is lost.

const (
	journalMagic  = 0x4a524e4c_00020001
	journalRegion = "kill/journal"

	jRecWords = 8

	// Record states (low 16 bits of the state word).
	recOpen      = 1 // committed, response not recorded: the crash candidate
	recDone      = 2 // response recorded before the kill
	recRecovered = 3 // resolved by a recovery pass, Out = recovered response
)

// KillRec is one decoded journal record.
type KillRec struct {
	Idx   int
	Kind  uint64
	A0    uint64
	A1    uint64
	Call  uint64
	Ret   uint64
	Out   uint64
	State int
	Epoch uint64 // open-epoch label at completion; 0 for strict targets
}

// Journal wraps the persistent log region. One Journal per process per open;
// the region itself carries all cross-process state.
type Journal struct {
	r       *pmem.Region
	threads int
	cap     int

	clock      atomic.Uint64 // in-process stamp source, rebased past durable stamps
	counts     []int         // volatile mirror of per-thread record counts
	epochClock func() uint64
}

func (j *Journal) threadBase(tid int) int {
	stride := pmem.LineWords + j.cap*jRecWords
	return pmem.LineWords + tid*stride
}

func (j *Journal) recBase(tid, i int) int {
	return j.threadBase(tid) + pmem.LineWords + i*jRecWords
}

// OpenJournal opens (initializing on first run) the kill journal for the
// given geometry. Reattaching with a different geometry is a caller bug and
// returns an error wrapping pmem.ErrSizeMismatch.
func OpenJournal(h *pmem.Heap, threads, capPerThread int) (*Journal, error) {
	words := pmem.LineWords + threads*(pmem.LineWords+capPerThread*jRecWords)
	r, err := h.OpenChecked(journalRegion, words)
	if err != nil {
		return nil, err
	}
	j := &Journal{r: r, threads: threads, cap: capPerThread, counts: make([]int, threads)}
	if r.Load(0) != journalMagic {
		r.DirectStore(1, uint64(threads))
		r.DirectStore(2, uint64(capPerThread))
		r.DirectStore(3, 0)
		r.DirectStore(0, journalMagic)
		return j, nil
	}
	if got, want := r.Load(1), uint64(threads); got != want {
		return nil, fmt.Errorf("%w: journal has %d threads, want %d", pmem.ErrSizeMismatch, got, want)
	}
	if got, want := r.Load(2), uint64(capPerThread); got != want {
		return nil, fmt.Errorf("%w: journal has cap %d, want %d", pmem.ErrSizeMismatch, got, want)
	}
	// Rebase the stamp clock past every durable stamp, so a process adopting
	// a journal that was never reset cannot reuse one.
	var maxStamp uint64
	for tid := 0; tid < threads; tid++ {
		j.counts[tid] = int(r.Load(j.threadBase(tid)))
		for _, rec := range j.Records(tid) {
			maxStamp = max(maxStamp, rec.Call, rec.Ret)
		}
	}
	j.clock.Store(maxStamp)
	return j, nil
}

// Round returns the durable campaign round counter.
func (j *Journal) Round() uint64 { return j.r.Load(3) }

// SetEpochClock installs the source of End's epoch labels.
func (j *Journal) SetEpochClock(clock func() uint64) { j.epochClock = clock }

// Begin durably commits a record for thread tid's next operation. Call
// before invoking the structure.
func (j *Journal) Begin(tid int, kind, a0, a1 uint64) {
	idx := j.counts[tid]
	if idx >= j.cap {
		panic(fmt.Sprintf("crashtest: journal full for tid %d (%d records)", tid, j.cap))
	}
	rb := j.recBase(tid, idx)
	j.r.DirectStore(rb+0, kind)
	j.r.DirectStore(rb+1, a0)
	j.r.DirectStore(rb+2, a1)
	j.r.DirectStore(rb+3, j.clock.Add(1))
	j.r.DirectStore(rb+4, 0)
	j.r.DirectStore(rb+5, 0)
	j.r.DirectStore(rb+6, recOpen)
	// Commit point: the record becomes visible to the verifier.
	j.counts[tid] = idx + 1
	j.r.DirectStore(j.threadBase(tid), uint64(idx+1))
}

// oldestOpen returns thread tid's first open record. Operations of a thread
// complete in the order they began, scalar or vectorized, so that is the one
// the next response belongs to.
func (j *Journal) oldestOpen(tid int) (idx int, ok bool) {
	for i := 0; i < j.counts[tid]; i++ {
		if j.r.Load(j.recBase(tid, i)+6)&0xffff == recOpen {
			return i, true
		}
	}
	return 0, false
}

// End durably records the response of tid's oldest open operation, labeled
// with the open epoch read AFTER the operation returned (a lower bound on the
// close that persists its effect — see pmem.Epoch.Now).
func (j *Journal) End(tid int, out uint64) {
	idx, ok := j.oldestOpen(tid)
	if !ok {
		return // End without Begin: installed mid-operation
	}
	var epoch uint64
	if j.epochClock != nil {
		epoch = j.epochClock()
	}
	j.mark(tid, idx, out, recDone|epoch<<16)
}

// Resolve durably records the response recovery obtained for tid's oldest
// open operation; false when tid has none.
func (j *Journal) Resolve(tid int, out uint64) bool {
	idx, ok := j.oldestOpen(tid)
	if ok {
		j.MarkRecovered(tid, idx, out)
	}
	return ok
}

// MarkRecovered durably records the response a recovery pass obtained for the
// open record idx of tid.
func (j *Journal) MarkRecovered(tid, idx int, out uint64) { j.mark(tid, idx, out, recRecovered) }

func (j *Journal) mark(tid, idx int, out, state uint64) {
	rb := j.recBase(tid, idx)
	j.r.DirectStore(rb+5, out)
	j.r.DirectStore(rb+4, j.clock.Add(1))
	j.r.DirectStore(rb+6, state)
}

// Records decodes thread tid's committed records.
func (j *Journal) Records(tid int) []KillRec {
	n := min(int(j.r.Load(j.threadBase(tid))), j.cap)
	out := make([]KillRec, 0, n)
	for i := 0; i < n; i++ {
		rb := j.recBase(tid, i)
		st := j.r.Load(rb + 6)
		out = append(out, KillRec{
			Idx:  i,
			Kind: j.r.Load(rb + 0), A0: j.r.Load(rb + 1), A1: j.r.Load(rb + 2),
			Call: j.r.Load(rb + 3), Ret: j.r.Load(rb + 4), Out: j.r.Load(rb + 5),
			State: int(st & 0xffff), Epoch: st >> 16,
		})
	}
	return out
}

// Reset closes out a verified round: record counts drop to zero and the
// durable round counter advances (which also invalidates the round's Cut).
func (j *Journal) Reset() {
	for tid := 0; tid < j.threads; tid++ {
		j.counts[tid] = 0
		j.r.DirectStore(j.threadBase(tid), 0)
	}
	j.r.DirectStore(3, j.Round()+1)
}

// Cut marks the round's crash. stamp is the structure's durably closed epoch
// as the caller found it at its own reattach, BEFORE performing any epoch
// close: the first caller of the round records it durably, and later calls of
// the same round change nothing. The pinning matters because recovery itself
// closes epochs — a recovery pass (possibly a recovery child that is then
// killed in turn) advances the durable stamp past epochs whose write-backs
// died with the workload child, and a verifier reading the stamp afterwards
// would promote those lost completions to closed-epoch ops that must survive.
func (j *Journal) Cut(stamp uint64) {
	round := j.r.Load(3)
	if j.r.Load(4) == round+1 {
		return
	}
	// Value before tag: a kill between the two stores leaves the pin absent,
	// and the next reattach re-records — legal, because the killed process
	// cannot have closed any epoch yet (Cut precedes every close a recovery
	// pass performs).
	j.r.DirectStore(5, stamp)
	j.r.DirectStore(4, round+1)
}

// Ops decodes the journal into the round's history. Open records are pending
// (free to take effect or vanish), recovered records carry their exactly-once
// response, and completed records labeled past the round's cut stamp were
// acknowledged only volatile: StatusVolatile lets them vanish with the kill
// but holds them to their recorded response if they linearize. Pending and
// recovered operations linearize anywhere between their invocation and one
// past every durable stamp.
func (j *Journal) Ops() []lin.Op {
	var stamp uint64
	if j.r.Load(4) == j.r.Load(3)+1 {
		stamp = j.r.Load(5)
	}
	var recs [][]KillRec
	var end uint64
	for tid := 0; tid < j.threads; tid++ {
		recs = append(recs, j.Records(tid))
		for _, rec := range recs[tid] {
			end = max(end, rec.Call, rec.Ret)
		}
	}
	var hist []lin.Op
	for tid, trecs := range recs {
		for _, rec := range trecs {
			op := lin.Op{
				Thread: tid, Kind: rec.Kind, Arg: rec.A0, Arg2: rec.A1,
				Call: int64(rec.Call), Return: int64(end) + 1,
				Out: rec.Out, Status: lin.StatusPending,
			}
			switch rec.State {
			case recDone:
				op.Status, op.Return = lin.StatusCompleted, int64(rec.Ret)
				if rec.Epoch > stamp {
					op.Status = lin.StatusVolatile
				}
			case recRecovered:
				op.Status = lin.StatusRecovered
			}
			hist = append(hist, op)
		}
	}
	return hist
}
