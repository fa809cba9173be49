package crashtest

import (
	"fmt"
	"sync/atomic"

	"pcomb/internal/pmem"
)

// Journal is the kill harness's persistent operation log. The child process
// journals every operation it issues against the file-backed heap:
// Begin durably commits the operation's record (kind, args, the per-thread
// sequence number it consumed, an invocation stamp) BEFORE the structure is
// invoked, and End durably records the response after. A SIGKILL at any
// point therefore leaves each thread with zero or one committed-but-open
// record — exactly the operation whose fate the recovery pass must resolve —
// and the verifier can rebuild a durable-linearizability history for the
// whole round from the file alone, with no cooperation from the dead
// process.
//
// All journal writes are DirectStore: the journal plays the role of the
// per-thread announcement/sequence state the paper's system model assumes
// the platform persists on the algorithms' behalf (detectable
// recoverability is impossible without it), so it is durable without
// fences and exempt from pwb accounting, like the structures' own system areas.
//
// Layout (words): one header line [magic, threads, cap, round, cutRound,
// cutStamp] (the cut pair backs EpochCut), then per thread one line
// [count, seqBase(class 0), seqBase(class 1), maxStamp]
// followed by cap fixed-stride records
// [kind, a0, a1, seq, call, ret, out, state|class<<8|epoch<<16].
//
// The epoch field (bits 16+ of the state word, written by EndEpoch) is the
// structure's open-epoch label read after the operation returned. Epoch-mode
// targets use it to split completed records at the crash cut: a record whose
// epoch exceeds the durable stamp the verifier finds at reopen completed only
// volatile — its effect may have vanished with the kill — while records of
// closed epochs must survive. Strict targets leave it zero.
//
// Begin's commit point is the count increment: record fields are written
// first, so a kill mid-Begin leaves the record invisible and its sequence
// number unconsumed — the structure was not yet invoked, nothing is lost.
// The seqBase words are repaired by the verifier (Reset) to the maximum
// sequence number any committed record consumed, so a kill between a
// record's commit and anything else can never make two operations share a
// sequence number across process lifetimes (reusing one would break the
// protocols' activate/deactivate parity and silently drop an operation).

const (
	journalMagic  = 0x4a524e4c_00010001
	journalRegion = "kill/journal"

	jRecWords = 8

	// Record states (low byte of the state word; the operation's sequence
	// class lives in the next byte).
	recOpen      = 1 // committed, response not recorded: the crash candidate
	recDone      = 2 // response recorded before the kill
	recRecovered = 3 // resolved by a recovery pass, Out = recovered response
)

// journalClasses is the number of per-thread sequence-number classes (the
// queue needs two: its enqueue and dequeue combining instances each keep
// their own per-thread sequence).
const journalClasses = 2

// KillRec is one decoded journal record.
type KillRec struct {
	Idx   int
	Kind  uint64
	A0    uint64
	A1    uint64
	Seq   uint64
	Call  uint64
	Ret   uint64
	Out   uint64
	State int
	Class int
	Epoch uint64 // open-epoch label at completion (EndEpoch); 0 for strict targets
}

// Journal wraps the persistent log region. One Journal per process per open;
// the region itself carries all cross-process state.
type Journal struct {
	r       *pmem.Region
	threads int
	cap     int

	clock    atomic.Uint64 // in-process stamp source, rebased past durable stamps
	counts   []int         // volatile mirror of per-thread record counts
	consumed [][]uint64    // per-thread per-class seqs consumed beyond seqBase
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
	j := &Journal{r: r, threads: threads, cap: capPerThread,
		counts: make([]int, threads), consumed: make([][]uint64, threads)}
	for tid := range j.consumed {
		j.consumed[tid] = make([]uint64, journalClasses)
	}
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
	// Rebase the stamp clock past every durable stamp and account for
	// sequence numbers already consumed by committed records, so a process
	// adopting a journal that was never reset cannot reuse either.
	var maxStamp uint64
	for tid := 0; tid < threads; tid++ {
		base := j.threadBase(tid)
		j.counts[tid] = int(r.Load(base))
		for _, rec := range j.Records(tid) {
			if rec.Call > maxStamp {
				maxStamp = rec.Call
			}
			if rec.Ret > maxStamp {
				maxStamp = rec.Ret
			}
			if rec.Class < journalClasses {
				sb := r.Load(base + 1 + rec.Class)
				if rec.Seq > sb+j.consumed[tid][rec.Class] {
					j.consumed[tid][rec.Class] = rec.Seq - sb
				}
			}
		}
	}
	j.clock.Store(maxStamp)
	return j, nil
}

// Round returns the durable campaign round counter.
func (j *Journal) Round() uint64 { return j.r.Load(3) }

// Begin durably commits a record for thread tid's next operation and returns
// the per-thread sequence number (of the given class) the operation must be
// invoked with, plus the record index for End. Call before invoking the
// structure.
func (j *Journal) Begin(tid, class int, kind, a0, a1 uint64) (seq uint64, idx int) {
	if j.counts[tid] >= j.cap {
		panic(fmt.Sprintf("crashtest: journal full for tid %d (%d records)", tid, j.cap))
	}
	base := j.threadBase(tid)
	j.consumed[tid][class]++
	seq = j.r.Load(base+1+class) + j.consumed[tid][class]
	idx = j.counts[tid]
	rb := j.recBase(tid, idx)
	j.r.DirectStore(rb+0, kind)
	j.r.DirectStore(rb+1, a0)
	j.r.DirectStore(rb+2, a1)
	j.r.DirectStore(rb+3, seq)
	j.r.DirectStore(rb+4, j.clock.Add(1))
	j.r.DirectStore(rb+5, 0)
	j.r.DirectStore(rb+6, 0)
	j.r.DirectStore(rb+7, uint64(recOpen)|uint64(class)<<8)
	// Commit point: the record becomes visible to the verifier.
	j.counts[tid] = idx + 1
	j.r.DirectStore(base, uint64(idx+1))
	return seq, idx
}

// End durably records the operation's response. A kill between Begin and End
// leaves the record open: the verifier resolves it through the structure's
// recovery function.
func (j *Journal) End(tid, idx int, out uint64) { j.EndEpoch(tid, idx, out, 0) }

// EndEpoch is End carrying the structure's open-epoch label, read AFTER the
// operation returned (a lower bound on the close that persists its effect —
// see pmem.Epoch.Now). Epoch 0 means strict durability: the record is never
// downgraded at the crash cut.
func (j *Journal) EndEpoch(tid, idx int, out, epoch uint64) {
	rb := j.recBase(tid, idx)
	cls := (j.r.Load(rb+7) >> 8) & 0xff
	j.r.DirectStore(rb+6, out)
	j.r.DirectStore(rb+5, j.clock.Add(1))
	j.r.DirectStore(rb+7, uint64(recDone)|cls<<8|epoch<<16)
}

// MarkRecovered durably records the response a recovery pass obtained for an
// open record. Idempotent re-marking with the same out is legal (the
// double-recovery campaigns re-run it on purpose).
func (j *Journal) MarkRecovered(tid, idx int, out uint64) {
	rb := j.recBase(tid, idx)
	cls := (j.r.Load(rb+7) >> 8) & 0xff
	j.r.DirectStore(rb+6, out)
	j.r.DirectStore(rb+5, j.clock.Add(1))
	j.r.DirectStore(rb+7, uint64(recRecovered)|cls<<8)
}

// Records decodes thread tid's committed records.
func (j *Journal) Records(tid int) []KillRec {
	base := j.threadBase(tid)
	n := int(j.r.Load(base))
	if n > j.cap {
		n = j.cap
	}
	out := make([]KillRec, 0, n)
	for i := 0; i < n; i++ {
		rb := j.recBase(tid, i)
		st := j.r.Load(rb + 7)
		out = append(out, KillRec{
			Idx:  i,
			Kind: j.r.Load(rb + 0), A0: j.r.Load(rb + 1), A1: j.r.Load(rb + 2),
			Seq: j.r.Load(rb + 3), Call: j.r.Load(rb + 4), Ret: j.r.Load(rb + 5),
			Out: j.r.Load(rb + 6), State: int(st & 0xff), Class: int(st >> 8 & 0xff),
			Epoch: st >> 16,
		})
	}
	return out
}

// Open returns thread tid's single open record, if any.
func (j *Journal) Open(tid int) (KillRec, bool) {
	for _, rec := range j.Records(tid) {
		if rec.State == recOpen {
			return rec, true
		}
	}
	return KillRec{}, false
}

// Reset closes out a verified round: every thread's sequence bases are
// repaired to the maximum sequence its committed records consumed (so the
// next round's Begin hands out strictly larger numbers even if the kill
// landed inside Begin's bookkeeping), record counts drop to zero, and the
// durable round counter advances.
func (j *Journal) Reset() {
	for tid := 0; tid < j.threads; tid++ {
		base := j.threadBase(tid)
		for _, rec := range j.Records(tid) {
			if rec.Class >= journalClasses {
				continue
			}
			if sb := j.r.Load(base + 1 + rec.Class); rec.Seq > sb {
				j.r.DirectStore(base+1+rec.Class, rec.Seq)
			}
		}
		j.counts[tid] = 0
		j.r.DirectStore(base, 0)
		for c := range j.consumed[tid] {
			j.consumed[tid][c] = 0
		}
	}
	j.r.DirectStore(3, j.Round()+1)
}

// EpochCut returns the round's crash-cut epoch stamp. stamp is the durable
// stamp the caller observed at its own reattach, BEFORE performing any epoch
// close: the first observer of the round records it durably, and every later
// reattach of the same round gets that first observation back. The pinning
// matters because recovery itself closes epochs — a recovery pass (possibly
// a recovery child that is then killed in turn) advances the durable stamp
// past epochs whose write-backs died with the workload child, and a verifier
// reading the stamp afterwards would promote those lost completions to
// closed-epoch ops that must survive. Reset implicitly invalidates the pin by
// advancing the round counter.
func (j *Journal) EpochCut(stamp uint64) uint64 {
	round := j.r.Load(3)
	if j.r.Load(4) == round+1 {
		return j.r.Load(5)
	}
	// Value before tag: a kill between the two stores leaves the pin absent,
	// and the next reattach re-records — legal, because the killed process
	// cannot have closed any epoch yet (EpochCut precedes every close a
	// recovery pass performs).
	j.r.DirectStore(5, stamp)
	j.r.DirectStore(4, round+1)
	return stamp
}

// AlignSeqBase realigns thread tid's sequence base of the given class with
// the structure's durable deactivate parity, after Reset. Strict targets
// never need this: every consumed sequence number is eventually served with
// that exact number, so parities stay in step. In epoch mode an operation can
// consume a number, complete volatile, and vanish with the crash — the
// journal's base then runs one parity step ahead of the structure, and the
// next Begin would hand out a number whose low bit equals the durable
// deactivate bit, which the protocol must treat as already served (silently
// dropping the operation). Skipping one number restores the alternation.
func (j *Journal) AlignSeqBase(tid, class int, parity uint64) {
	base := j.threadBase(tid)
	if sb := j.r.Load(base + 1 + class); (sb+1)&1 == parity {
		j.r.DirectStore(base+1+class, sb+1)
	}
}
