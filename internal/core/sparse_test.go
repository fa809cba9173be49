package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pcomb/internal/pmem"
)

// sparseArray is a wide register file that reports its writes, exercising
// sparse persistence: state = 64 words (8 lines).
type sparseArray struct{ words int }

func (sparseArray) MarksDirty() {}

// dense hides an object's SparseObject extension (and any other), so the
// protocols copy and persist its whole record: the reference the sparse
// tests compare against.
type dense struct{ Object }

// markedCounter is Counter as a SparseObject.
type markedCounter struct{ Counter }

func (markedCounter) MarksDirty() {}

func (c markedCounter) Apply(env *Env, r *Request) {
	c.Counter.Apply(env, r)
	env.MarkDirty(0, 1)
}

func (a sparseArray) StateWords() int { return a.words }

func (a sparseArray) Init(s State) {
	for i := 0; i < a.words; i++ {
		s.Store(i, 0)
	}
}

func (a sparseArray) Apply(env *Env, r *Request) {
	switch r.Op {
	case OpRegWrite:
		i := int(r.A0) % a.words
		r.Ret = env.State.Load(i)
		env.State.Store(i, r.A1)
		env.MarkDirty(i, 1)
	case OpRegRead:
		r.Ret = env.State.Load(int(r.A0) % a.words)
	}
}

func TestSparseMatchesDense(t *testing.T) {
	// Property: a random op sequence produces identical state and returns
	// under sparse and whole-record persistence.
	f := func(ops []uint16) bool {
		h1, h2 := shadowHeap(), shadowHeap()
		a := NewPBComb(h1, "a", 1, sparseArray{64})
		b := NewPBComb(h2, "b", 1, dense{sparseArray{64}})
		for i, o := range ops {
			op := OpRegWrite
			if o%3 == 0 {
				op = OpRegRead
			}
			ra := a.Invoke(0, op, uint64(o%64), uint64(o), uint64(i)+1)
			rb := b.Invoke(0, op, uint64(o%64), uint64(o), uint64(i)+1)
			if ra != rb {
				return false
			}
		}
		for i := 0; i < 64; i++ {
			if a.CurrentState().Load(i) != b.CurrentState().Load(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseFewerPwbsOnWideState(t *testing.T) {
	const words, ops = 512, 200 // 64 state lines
	count := func(sparse bool) uint64 {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
		var obj Object = sparseArray{words}
		if !sparse {
			obj = dense{obj}
		}
		c := NewPBComb(h, "a", 1, obj)
		h.ResetStats()
		for i := uint64(1); i <= ops; i++ {
			c.Invoke(0, OpRegWrite, i%words, i, i)
		}
		return h.Stats().Pwbs
	}
	whole, sparse := count(false), count(true)
	if sparse*10 > whole {
		t.Fatalf("sparse pwbs %d not ≪ dense %d on a 64-line state", sparse, whole)
	}
}

func TestSparseDurabilityAfterCrash(t *testing.T) {
	// Writes scattered over many rounds; after a DropUnfenced crash the
	// recovered state must equal the state at the last completed operation.
	h := shadowHeap()
	c := NewPBComb(h, "a", 1, sparseArray{64})
	want := make([]uint64, 64)
	rng := rand.New(rand.NewSource(4))
	for i := uint64(1); i <= 300; i++ {
		idx := uint64(rng.Intn(64))
		val := rng.Uint64()
		c.Invoke(0, OpRegWrite, idx, val, i)
		want[idx] = val
	}
	h.Crash(pmem.DropUnfenced, 1)
	c2 := NewPBComb(h, "a", 1, sparseArray{64})
	for i := 0; i < 64; i++ {
		if got := c2.CurrentState().Load(i); got != want[i] {
			t.Fatalf("word %d = %d, want %d (stale line leaked through)", i, got, want[i])
		}
	}
}

func TestSparseCrashPointSweep(t *testing.T) {
	// Crash at every persistence event of an op history with overlapping
	// dirty lines across rounds: the recovered state must always be a
	// consistent prefix plus the exactly-once recovered op.
	for k := int64(1); ; k++ {
		h := shadowHeap()
		c := NewPBComb(h, "a", 1, sparseArray{64})
		for i := uint64(1); i <= 6; i++ {
			c.Invoke(0, OpRegWrite, i%3, i*10, i) // revisit lines repeatedly
		}
		ctx := c.Ctx(0)
		ctx.SetCrashAt(k)
		crashed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(pmem.CrashError); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			c.Invoke(0, OpRegWrite, 1, 999, 7)
		}()
		if !crashed {
			return
		}
		h.Crash(pmem.DropUnfenced, k)
		c2 := NewPBComb(h, "a", 1, sparseArray{64})
		if got := c2.Recover(0, OpRegWrite, 1, 999, 7); got != 40 {
			t.Fatalf("crash@%d: recovered op returned %d, want 40 (old word 1)", k, got)
		}
		st := c2.CurrentState()
		if st.Load(1) != 999 || st.Load(0) != 60 || st.Load(2) != 50 {
			t.Fatalf("crash@%d: state [%d %d %d], want [60 999 50]",
				k, st.Load(0), st.Load(1), st.Load(2))
		}
	}
}

func TestSparseCrossCrashIncrementalPersist(t *testing.T) {
	// The record not pointed to by MIndex at reopen has arbitrary durable
	// bytes; the first round using it must persist it fully. Three
	// crash/reopen generations with one op in between stress exactly that.
	h := shadowHeap()
	want := make([]uint64, 64)
	seq := uint64(1)
	c := NewPBComb(h, "a", 1, sparseArray{64})
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 5; i++ {
			idx := uint64(gen*7+i) % 64
			c.Invoke(0, OpRegWrite, idx, seq*100, seq)
			want[idx] = seq * 100
			seq++
		}
		h.Crash(pmem.DropUnfenced, int64(gen))
		c = NewPBComb(h, "a", 1, sparseArray{64})
		// seq continues across the crash, as the system model guarantees.
		for i := 0; i < 64; i++ {
			if got := c.CurrentState().Load(i); got != want[i] {
				t.Fatalf("gen %d: word %d = %d, want %d", gen, i, got, want[i])
			}
		}
	}
}
