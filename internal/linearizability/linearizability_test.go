package linearizability

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func seqOps(kinds ...Op) []Op {
	// Assign strictly sequential timestamps: op i spans [2i+1, 2i+2].
	for i := range kinds {
		kinds[i].Call = int64(2*i + 1)
		kinds[i].Return = int64(2*i + 2)
	}
	return kinds
}

func TestSequentialQueueHistories(t *testing.T) {
	ok := seqOps(
		Op{Kind: KindEnq, Arg: 1},
		Op{Kind: KindEnq, Arg: 2},
		Op{Kind: KindDeq, Out: 1},
		Op{Kind: KindDeq, Out: 2},
		Op{Kind: KindDeq, Out: EmptyOut},
	)
	if !Check(QueueModel{}, ok) {
		t.Fatal("valid sequential FIFO history rejected")
	}
	bad := seqOps(
		Op{Kind: KindEnq, Arg: 1},
		Op{Kind: KindEnq, Arg: 2},
		Op{Kind: KindDeq, Out: 2}, // LIFO order: not a queue
	)
	if Check(QueueModel{}, bad) {
		t.Fatal("LIFO-order history accepted by the queue model")
	}
}

func TestSequentialStackHistories(t *testing.T) {
	ok := seqOps(
		Op{Kind: KindEnq, Arg: 1},
		Op{Kind: KindEnq, Arg: 2},
		Op{Kind: KindDeq, Out: 2},
		Op{Kind: KindDeq, Out: 1},
	)
	if !Check(StackModel{}, ok) {
		t.Fatal("valid sequential LIFO history rejected")
	}
	bad := seqOps(
		Op{Kind: KindEnq, Arg: 1},
		Op{Kind: KindEnq, Arg: 2},
		Op{Kind: KindDeq, Out: 1}, // FIFO order: not a stack
	)
	if Check(StackModel{}, bad) {
		t.Fatal("FIFO-order history accepted by the stack model")
	}
}

func TestOverlapPermitsReordering(t *testing.T) {
	// Two overlapping enqueues may linearize in either order; the dequeue
	// observing the "later" one first is therefore fine.
	h := []Op{
		{Kind: KindEnq, Arg: 1, Call: 1, Return: 10},
		{Kind: KindEnq, Arg: 2, Call: 2, Return: 9},
		{Kind: KindDeq, Out: 2, Call: 11, Return: 12},
		{Kind: KindDeq, Out: 1, Call: 13, Return: 14},
	}
	if !Check(QueueModel{}, h) {
		t.Fatal("overlapping enqueues must be reorderable")
	}
	// But with non-overlapping enqueues (1 strictly before 2), dequeuing 2
	// first is a real-time violation.
	h[0].Return = 3
	h[1].Call = 4
	h[1].Return = 5
	if Check(QueueModel{}, h) {
		t.Fatal("real-time order violated but history accepted")
	}
}

func TestCheckOrderedEnforcesProgramOrder(t *testing.T) {
	// One thread stages two enqueues in one batch (they overlap); another
	// thread dequeues afterwards. Dequeuing the second-submitted value first
	// is linearizable if the batch may apply in any order, but not under the
	// vector API's promise that a thread's ops apply in submission order.
	h := []Op{
		{Thread: 0, Kind: KindEnq, Arg: 1, Call: 1, Return: 10},
		{Thread: 0, Kind: KindEnq, Arg: 2, Call: 2, Return: 9},
		{Thread: 1, Kind: KindDeq, Out: 2, Call: 11, Return: 12},
		{Thread: 1, Kind: KindDeq, Out: 1, Call: 13, Return: 14},
	}
	if !Check(QueueModel{}, h) {
		t.Fatal("overlapping enqueues must be reorderable without program order")
	}
	if CheckOrdered(QueueModel{}, h) {
		t.Fatal("a batch applied out of submission order was accepted")
	}
	// The same two enqueues from different threads carry no mutual order.
	h[1].Thread = 2
	if !CheckOrdered(QueueModel{}, h) {
		t.Fatal("program order was imposed across threads")
	}
	// In submission order the batch passes.
	h[1].Thread = 0
	h[2].Out, h[3].Out = 1, 2
	if !CheckOrdered(QueueModel{}, h) {
		t.Fatal("a batch applied in submission order was rejected")
	}
}

func TestCheckOrderedKeepsOverlappingBatchesInBudget(t *testing.T) {
	// Three threads, two rounds of four-op batches, every op of a round
	// overlapping every other — the shape that let the unordered search outrun
	// its budget. All enqueues, then a sequential drain in one legal order:
	// rounds in order, and within a round thread by thread.
	var enq, h []Op
	ts := int64(0)
	for r := 0; r < 2; r++ {
		start := len(enq)
		for th := 0; th < 3; th++ {
			for i := 0; i < 4; i++ {
				ts++
				enq = append(enq, Op{Thread: th, Kind: KindEnq, Arg: uint64(100*r + 10*th + i + 1), Call: ts})
			}
		}
		for i := start; i < len(enq); i++ {
			ts++
			enq[i].Return = ts
		}
	}
	// List each batch latest op first, so a search that takes candidates in
	// slice order has to find the submission order by backtracking.
	for b := 0; b < len(enq); b += 4 {
		h = append(h, enq[b+3], enq[b+2], enq[b+1], enq[b])
	}
	for _, e := range enq {
		h = append(h, Op{Thread: 3, Kind: KindDeq, Out: e.Arg, Call: ts + 1, Return: ts + 2})
		ts += 2
	}
	budget := int64(1) << 12
	if res := checkOne(QueueModel{}, h, &budget, true); res.Outcome != Ok {
		t.Fatalf("ordered check: %v after %d steps: %s", res.Outcome, res.Steps, res.Diag)
	}
	budget = int64(1) << 12
	if res := checkOne(QueueModel{}, h, &budget, false); res.Outcome != Exhausted {
		t.Fatalf("unordered check at the same budget: %v after %d steps; the history no longer shows what program order saves",
			res.Outcome, res.Steps)
	}
}

func TestDequeueFromEmptyOverlap(t *testing.T) {
	// A dequeue overlapping an enqueue may legally miss it (empty) or take
	// it; both recorded outcomes must pass.
	base := []Op{
		{Kind: KindEnq, Arg: 7, Call: 1, Return: 6},
		{Kind: KindDeq, Call: 2, Return: 5},
	}
	miss := append([]Op(nil), base...)
	miss[1].Out = EmptyOut
	if !Check(QueueModel{}, miss) {
		t.Fatal("overlapping empty-dequeue rejected")
	}
	take := append([]Op(nil), base...)
	take[1].Out = 7
	if !Check(QueueModel{}, take) {
		t.Fatal("overlapping taking-dequeue rejected")
	}
}

func TestCounterModel(t *testing.T) {
	ok := seqOps(
		Op{Kind: KindAdd, Arg: 1, Out: 0},
		Op{Kind: KindAdd, Arg: 2, Out: 1},
		Op{Kind: KindAdd, Arg: 1, Out: 3},
	)
	if !Check(CounterModel{}, ok) {
		t.Fatal("valid counter history rejected")
	}
	bad := seqOps(
		Op{Kind: KindAdd, Arg: 1, Out: 0},
		Op{Kind: KindAdd, Arg: 1, Out: 0}, // duplicate fetch value
	)
	if Check(CounterModel{}, bad) {
		t.Fatal("duplicate fetch&add accepted")
	}
}

func TestQuickSequentialAlwaysLinearizable(t *testing.T) {
	// Property: any history generated by running ops sequentially against
	// the model itself is linearizable.
	f := func(ops []uint8) bool {
		state := QueueModel{}.Init()
		var hist []Op
		ts := int64(1)
		for _, o := range ops[:min(len(ops), 12)] {
			var op Op
			if o%2 == 0 {
				op = Op{Kind: KindEnq, Arg: uint64(o)}
			} else {
				q := state.([]uint64)
				op = Op{Kind: KindDeq, Out: EmptyOut}
				if len(q) > 0 {
					op.Out = q[0]
				}
			}
			op.Call, op.Return = ts, ts+1
			ts += 2
			next, legal := (QueueModel{}).Step(state, op)
			if !legal {
				return false
			}
			state = next
			hist = append(hist, op)
		}
		return Check(QueueModel{}, hist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}
