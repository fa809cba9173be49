package sysarea_test

import (
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/history"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
)

// word is a one-word object: opBump adds A0 and returns the new value, opLook
// reads it — through Read, which first runs storm when one is set (a writer
// landing inside the probe).
type word struct{ storm *func() }

const (
	opBump uint64 = iota + 1
	opLook
)

func (word) StateWords() int { return 1 }

func (word) Init(s core.State) { s.Store(0, 0) }

func (w word) Apply(env *core.Env, r *core.Request) {
	if r.Op == opBump {
		r.Ret = env.State.Load(0) + r.A0
		env.State.Store(0, r.Ret)
		env.MarkDirty(0, 1)
		return
	}
	r.Ret = env.State.Load(0)
}

func (w word) Read(s core.State, _, _, _ uint64) uint64 {
	if *w.storm != nil {
		(*w.storm)()
	}
	return s.Load(0)
}

func snapshot(r *pmem.Region) []uint64 {
	out := make([]uint64, r.Len())
	r.Snapshot(out, 0, len(out))
	return out
}

func same(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Area.Read stores nothing while the instance can validate the read, and only
// when it cannot — a round lands inside every probe — opens a record, draws
// the thread's next sequence number and announces the read like an update,
// which still answers correctly. Either way the history sees one completed
// operation.
func TestReadStoresNothingUntilItMustAnnounce(t *testing.T) {
	for _, waitFree := range []bool{false, true} {
		name := "PBcomb"
		if waitFree {
			name = "PWFcomb"
		}
		t.Run(name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeShadow, NoCost: true})
			var storm func()
			var inst core.Protocol
			if waitFree {
				inst = core.NewPWFComb(h, "w", 2, word{&storm})
			} else {
				inst = core.NewPBComb(h, "w", 2, word{&storm})
			}
			area := sysarea.New(h, "w/sys", 2, []core.Protocol{inst}, nil, 0)
			rec := history.New(2)
			area.SetHistory(rec)
			area.Invoke(0, 0, opBump, 5, 0)
			area.Invoke(1, 0, opBump, 1, 0)

			before, stats := snapshot(h.Region("w/sys")), h.Stats()
			for i := 0; i < 100; i++ {
				if got := area.Read(0, 0, opLook, 0, 0); got != 6 {
					t.Fatalf("Read = %d, want 6", got)
				}
			}
			if !same(before, snapshot(h.Region("w/sys"))) || h.Stats() != stats {
				t.Fatal("validated reads stored to the system area or issued persistence instructions")
			}

			// Thread 1 completes a round inside every probe of thread 0's read.
			storm = func() {
				f := storm
				storm = nil // the round's own Apply must not recurse
				area.Invoke(1, 0, opBump, 1, 0)
				storm = f
			}
			seq := area.Seq(0, 0)
			got := area.Read(0, 0, opLook, 0, 0)
			storm = nil
			if area.Seq(0, 0) != seq+1 {
				t.Fatalf("thread 0's counter went from %d to %d: the read was not announced", seq, area.Seq(0, 0))
			}
			want := area.Read(1, 0, opLook, 0, 0)
			if got != want || got <= 6 {
				t.Fatalf("announced read = %d, state = %d", got, want)
			}
			if rec.Pending(0) != 0 || rec.Pending(1) != 0 {
				t.Fatal("a read was left pending in the history")
			}
			res := lin.CheckDurable(lin.CounterModel{}, kinds(rec.Ops()), lin.Opts{})
			if res.Outcome != lin.Ok {
				t.Fatalf("history: %v: %s", res.Outcome, res.Diag)
			}
		})
	}
}

// kinds maps the word object's op codes to CounterModel's: an add that returns
// the new value is not CounterModel's fetch&add, so bumps are rewritten to
// return the previous one.
func kinds(ops []lin.Op) []lin.Op {
	for i := range ops {
		if ops[i].Kind == opBump {
			ops[i].Kind, ops[i].Out = lin.KindAdd, ops[i].Out-ops[i].Arg
		} else {
			ops[i].Kind = lin.KindRead
		}
	}
	return ops
}
