package crashtest

import (
	"testing"

	"pcomb"
	"pcomb/internal/history"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
)

// roundLog is what the two history logs share beyond sysarea.Log.
type roundLog interface {
	sysarea.Log
	Cut(stamp uint64)
	Ops() []lin.Op
}

// cutLog lets a process die between a Get's read and its End: armed, the next
// End unwinds like a crash instead of being logged.
type cutLog struct {
	sysarea.Log
	armed bool
}

func (l *cutLog) End(tid int, out uint64) {
	if l.armed {
		l.armed = false
		panic(pmem.CrashError{})
	}
	l.Log.End(tid, out)
}

// A Get the crash caught — logged Begin, no End, and no system-area record,
// because a read writes none — stays pending: Recover reports nothing for its
// thread, and the Resolve of another thread's interrupted Put lands on that
// Put, not on the Get. Checked on the in-memory recorder and on the kill
// engine's file-backed journal, which is reopened as the verifier would.
func TestReadPathPendingGetStaysPending(t *testing.T) {
	for _, kind := range []pcomb.Kind{pcomb.Blocking, pcomb.WaitFree} {
		for _, journal := range []bool{false, true} {
			name := pfx(kind) + "map/recorder"
			if journal {
				name = pfx(kind) + "map/journal"
			}
			t.Run(name, func(t *testing.T) {
				h := newShadowHeap()
				rec := history.New(2)
				openLog := func() roundLog {
					if !journal {
						return rec
					}
					j, err := OpenJournal(h, 2, 8)
					if err != nil {
						t.Fatal(err)
					}
					return j
				}
				open := func() *pcomb.Map {
					return pcomb.NewOn(h).NewMap("m", 2, kind, pcomb.MapOptions{Shards: 1})
				}
				m, log := open(), &cutLog{Log: openLog()}
				m.SetHistory(log)
				m.Put(0, 7, 1)
				log.armed = true
				if !unwound(func() { m.Get(0, 7) }) {
					t.Fatal("the Get was not cut off")
				}
				h.SetCrashAtEvent(2)
				if !unwound(func() { m.Put(1, 9, 5) }) {
					t.Fatal("the Put was not interrupted")
				}
				h.FinishCrash(pmem.DropUnfenced, 1)

				m, after := open(), openLog()
				m.SetHistory(after)
				after.Cut(0)
				if rs := m.Recover(0); len(rs) != 0 {
					t.Fatalf("Recover reported %+v for the thread a Get was interrupted on", rs)
				}
				if rs := m.Recover(1); len(rs) != 1 || rs[0].Op != pcomb.OpPut {
					t.Fatalf("Recover(1) = %+v, want the interrupted Put", rs)
				}
				want := map[[2]uint64]lin.Status{ // (thread, kind) -> fate
					{0, lin.KindPut}: lin.StatusCompleted,
					{0, lin.KindGet}: lin.StatusPending,
					{1, lin.KindPut}: lin.StatusRecovered,
				}
				ops := after.Ops()
				if len(ops) != len(want) {
					t.Fatalf("history holds %d operations, want %d: %+v", len(ops), len(want), ops)
				}
				for _, op := range ops {
					if st := want[[2]uint64{uint64(op.Thread), op.Kind}]; op.Status != st {
						t.Fatalf("thread %d kind %d has status %d, want %d", op.Thread, op.Kind, op.Status, st)
					}
				}
				final := pairs(m.Range)
				res, _ := mapModel.check(ops, nil, final, DurLinOpts{Budget: lin.DefaultBudget}, true)
				if res.Outcome != lin.Ok {
					t.Fatalf("history: %v: %s", res.Outcome, res.Diag)
				}
			})
		}
	}
}
