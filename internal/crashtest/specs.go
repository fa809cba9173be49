package crashtest

import (
	"fmt"
	"sort"

	"pcomb"
	"pcomb/internal/core"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
)

// This file is the whole per-structure part of the crash tests: one Spec
// constructor per structure family. The sizes are one set for tests, CLI and
// CI, scaled by the thread count — the node arenas by the whole campaign —
// where the need is.
const (
	// poolChunk is the run of nodes a queue or stack thread reserves from the
	// arena at a time (the structures' default chunk size).
	poolChunk = 256
	// killArena is the queue arena of the kill engine, which keeps one heap
	// file for a campaign of up to a few hundred short rounds: a fixed 4 MiB.
	killArena = 1 << 18

	heapBound = 1024
	// specVecCap is the vector capacity of the vectorized variants: a crash
	// point can land anywhere inside a multi-op vector — the ring publish,
	// the announcement, a partial application, the return-slot collection.
	specVecCap = 4

	mapShards = 4
	mapKeys   = 64 // per-thread key window
	// wordsPerThread gives each thread two cache lines of the register file,
	// so the state spans several lines per thread and the sparse fill/persist
	// paths (merged dirty sets, per-line version stamps) are what a crash
	// can tear.
	wordsPerThread = 16

	fabShards   = 4  // enough that transaction legs routinely land on different shards
	fabKeys     = 16 // per-thread scalar key window
	fabAccounts = 16 // account pool shared by all threads, touched only by transfers
)

// simArena sizes the queue and stack node arenas of the simulated engines for
// one campaign of cfg's shape, which starts on a fresh heap. The arena has to
// absorb the whole campaign — nodes leaked by a crash are never reclaimed (the
// pool's durable cursor only grows) and PWFqueue never recycles — so it is a
// node per operation of every step's longest vector, several times what the
// op tables insert and room for the copies PWFcomb's losing combiners discard,
// plus per round and thread the chunk the crash caught it in and one for each
// of a recovery, a crashed recovery and the first step after them. It should
// be no larger: every simulated crash copies the whole arena back from its
// shadow, word by word, which under the race detector is what a small
// campaign's time goes into.
func simArena(cfg Config) int {
	rounds := max(cfg.Rounds, 1) // enumerate: one round per crash point
	return cfg.Threads * (cfg.Ops*rounds*specVecCap + 4*poolChunk*(rounds+1))
}

func pfx(kind pcomb.Kind) string {
	if kind == pcomb.WaitFree {
		return "PWF"
	}
	return "PB"
}

func tag(on bool, s string) string {
	if on {
		return s
	}
	return ""
}

// drain is the Whole audit of a container: remove vals through the model's
// removal kind in the order it would yield them, then find it empty.
func drain(kind uint64, order func(vals []uint64)) func([]uint64) []lin.Op {
	return func(final []uint64) []lin.Op {
		vals := append([]uint64(nil), final...)
		order(vals)
		audits := make([]lin.Op, 0, len(vals)+1)
		for _, v := range vals {
			audits = append(audits, lin.Op{Kind: kind, Out: v})
		}
		return append(audits, lin.Op{Kind: kind, Out: lin.EmptyOut})
	}
}

func inOrder([]uint64) {}

func reversed(vals []uint64) {
	for i, j := 0, len(vals)-1; i < j; i, j = i+1, j-1 {
		vals[i], vals[j] = vals[j], vals[i]
	}
}

func ascending(vals []uint64) { sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] }) }

// containerFlow is the token flow of queue, stack and heap, whose models share
// kind 1 = insert Arg and kind 2 = remove and return the model's next value
// (the heap's kind 3, get-min, moves nothing): an insert puts its argument
// unless it answered "full", a removal takes what it returned unless that was
// "empty".
func containerFlow(op lin.Op) (put, take Token) {
	pending := op.Status == lin.StatusPending
	switch op.Kind {
	case lin.KindEnq:
		put = Token{V: op.Arg, OK: pending || op.Out != lin.FullOut}
	case lin.KindDeq:
		take = Token{V: op.Out, OK: pending || op.Out != lin.EmptyOut, FromOut: true}
	}
	return put, take
}

// pairs flattens a Range into the (key, value) pairs a Keyed model takes.
func pairs(each func(func(k, v uint64) bool)) []uint64 {
	var out []uint64
	each(func(k, v uint64) bool {
		out = append(out, k, v)
		return true
	})
	return out
}

// counterSpec is a fetch&add counter, the paper's universal construction in
// its smallest instance.
func counterSpec(kind pcomb.Kind) *Spec {
	var c *pcomb.Recoverable
	return &Spec{
		Name: "counter/" + pfx(kind) + "comb",
		Open: func(h *pmem.Heap, n int) Handle {
			c = pcomb.NewOn(h).NewObject("c", n, kind, core.Counter{})
			return c
		},
		Ops:   []OpDef{{Weight: 1, Do: func(g *gen) { c.Invoke(g.tid, core.OpCounterAdd, 1, 0) }}},
		Kinds: map[uint64]uint64{core.OpCounterAdd: lin.KindAdd},
		State: func() []uint64 { return []uint64{c.State().Load(0)} },
		Model: Tickets{Whole{
			New:   func(init []uint64) lin.Model { return lin.CounterModel{Initial: init[0]} },
			Drain: func(final []uint64) []lin.Op { return []lin.Op{{Kind: lin.KindRead, Out: final[0]}} },
		}},
	}
}

// registerSpec is a wide register file: every thread writes fresh values into
// its own word range. A line dropped from a sparse persist, a stale line
// leaked by an under-approximated dirty set, a vector applied twice or partly
// — each shows as a write returning the wrong previous value or a word
// reading the wrong final one.
func registerSpec(kind pcomb.Kind, vecCap int) *Spec {
	var r *pcomb.Recoverable
	words := 0
	write := func(g *gen) (word, val uint64) {
		return uint64(g.tid*wordsPerThread + g.Intn(wordsPerThread)), g.val()
	}
	name := "register/" + pfx(kind) + "sparse"
	if vecCap > 1 {
		name = "register/" + pfx(kind) + "batch"
	}
	return &Spec{
		Name:   name,
		VecCap: vecCap,
		Open: func(h *pmem.Heap, n int) Handle {
			words = n * wordsPerThread
			r = pcomb.NewOn(h).NewObject("r", n, kind, core.RegisterFile{Words: words},
				pcomb.ObjectOptions{VecCap: vecCap})
			return r
		},
		Ops: []OpDef{{
			Weight: 1,
			Do:     func(g *gen) { w, v := write(g); r.Invoke(g.tid, core.OpRegWrite, w, v) },
			Submit: func(g *gen) { w, v := write(g); r.Submit(g.tid, core.OpRegWrite, w, v) },
		}},
		Kinds: map[uint64]uint64{core.OpRegWrite: lin.KindWrite},
		State: func() []uint64 {
			st, out := r.State(), make([]uint64, 0, 2*words)
			for w := 0; w < words; w++ {
				out = append(out, uint64(w), st.Load(w))
			}
			return out
		},
		Model: Keyed{New: func(init uint64) lin.Model { return lin.RegisterModel{Initial: init} }, Read: lin.KindRead},
	}
}

// queueSpec is PBqueue/PWFqueue. The slight dequeue bias keeps the residue,
// and with it the audit, drifting toward empty instead of growing with the
// campaign. An epoch-mode queue also closes epochs from the worker threads,
// so crash points land inside the close pass itself (and, under the kill
// engine, at all: epoch-mode operations emit no persistence events).
func queueSpec(kind pcomb.Kind, o pcomb.QueueOptions) *Spec {
	var q *pcomb.Queue
	sp := &Spec{
		Name:   "queue/" + pfx(kind) + "queue" + tag(o.VecCap > 1, "-vec") + tag(o.Epoch, "-epoch"),
		VecCap: o.VecCap,
		Open: func(h *pmem.Heap, n int) Handle {
			q = pcomb.NewOn(h).NewQueue("q", n, kind, o)
			return q
		},
		Ops: []OpDef{
			{7, func(g *gen) { q.Enqueue(g.tid, g.val()) }, func(g *gen) { q.SubmitEnqueue(g.tid, g.val()) }},
			{9, func(g *gen) { q.Dequeue(g.tid) }, func(g *gen) { q.SubmitDequeue(g.tid) }},
		},
		State: func() []uint64 { return q.Snapshot() },
		Model: Whole{
			New:   func(init []uint64) lin.Model { return lin.QueueModel{Initial: init} },
			Drain: drain(lin.KindDeq, inOrder),
			Flow:  containerFlow,
		},
	}
	if o.Epoch {
		sp.Stamp = func() uint64 { return q.EpochClosed() }
		sp.Ops = append(sp.Ops, OpDef{Weight: 3, Do: func(g *gen) { q.Sync() }})
	}
	return sp
}

// stackSpec is PBstack/PWFstack; State is bottom first, as StackModel seeds.
func stackSpec(kind pcomb.Kind, o pcomb.StackOptions) *Spec {
	var s *pcomb.Stack
	return &Spec{
		Name:   "stack/" + pfx(kind) + "stack" + tag(o.VecCap > 1, "-vec"),
		VecCap: o.VecCap,
		Open: func(h *pmem.Heap, n int) Handle {
			s = pcomb.NewOn(h).NewStack("s", n, kind, o)
			return s
		},
		Ops: []OpDef{
			{1, func(g *gen) { s.Push(g.tid, g.val()) }, func(g *gen) { s.SubmitPush(g.tid, g.val()) }},
			{1, func(g *gen) { s.Pop(g.tid) }, func(g *gen) { s.SubmitPop(g.tid) }},
		},
		State: func() []uint64 {
			vals := s.Snapshot()
			reversed(vals)
			return vals
		},
		Model: Whole{
			New:   func(init []uint64) lin.Model { return lin.StackModel{Initial: init} },
			Drain: drain(lin.KindDeq, reversed),
			Flow:  containerFlow,
		},
	}
}

// heapSpec is PBheap/PWFheap; beyond the model, the key array must be in heap
// order after every recovery.
func heapSpec(kind pcomb.Kind, o pcomb.HeapOptions) *Spec {
	var hp *pcomb.Heap
	return &Spec{
		Name:   "heap/" + pfx(kind) + "heap" + tag(o.VecCap > 1, "-vec"),
		VecCap: o.VecCap,
		Open: func(h *pmem.Heap, n int) Handle {
			hp = pcomb.NewOn(h).NewHeap("h", n, kind, heapBound, o)
			return hp
		},
		Ops: []OpDef{
			{7, func(g *gen) { hp.Insert(g.tid, g.val()) }, func(g *gen) { hp.SubmitInsert(g.tid, g.val()) }},
			{7, func(g *gen) { hp.DeleteMin(g.tid) }, func(g *gen) { hp.SubmitDeleteMin(g.tid) }},
			{2, func(g *gen) { hp.GetMin(g.tid) }, func(g *gen) { hp.SubmitGetMin(g.tid) }},
		},
		State: func() []uint64 { return hp.Keys() },
		Model: Whole{
			New:   func(init []uint64) lin.Model { return lin.HeapModel{Initial: init, Bound: heapBound} },
			Drain: drain(lin.KindDelMin, ascending),
			Flow:  containerFlow,
		},
		Invariant: func() error {
			keys := hp.Keys()
			for i := 1; i < len(keys); i++ {
				if keys[i] < keys[(i-1)/2] {
					return fmt.Errorf("heap order violated at index %d", i)
				}
			}
			return nil
		},
	}
}

// mapSpec is the sharded hash map: put, delete and get over a per-thread key
// window. A staged vector spans shards, so one Flush is several vectorized
// announcements and a crash can fall between them. The plain map — sparse,
// scalar, strict: the one users get — runs read-heavy (60 % Get): its Gets
// are validated reads of the last durable record, taken beside the rounds
// that move it; a staged Get runs inside its vector's round instead.
func mapSpec(kind pcomb.Kind, o pcomb.MapOptions) *Spec {
	var m *pcomb.Map
	key := func(g *gen) uint64 { return uint64(g.tid)<<32 | uint64(g.Intn(mapKeys)) + 1 }
	o.Shards = mapShards
	gets := 1
	if o.VecCap <= 1 && !o.Epoch {
		gets = 3
	}
	sp := &Spec{
		Name:   "map/" + pfx(kind) + "map" + tag(o.VecCap > 1, "-vec") + tag(o.Epoch, "-epoch"),
		VecCap: o.VecCap,
		Open: func(h *pmem.Heap, n int) Handle {
			o.Capacity = 2 * mapKeys * n // half full with every key live
			m = pcomb.NewOn(h).NewMap("m", n, kind, o)
			return m
		},
		Ops: []OpDef{
			{1, func(g *gen) { m.Put(g.tid, key(g), g.val()) }, func(g *gen) { m.SubmitPut(g.tid, key(g), g.val()) }},
			{1, func(g *gen) { m.Delete(g.tid, key(g)) }, func(g *gen) { m.SubmitDelete(g.tid, key(g)) }},
			{gets, func(g *gen) { m.Get(g.tid, key(g)) }, func(g *gen) { m.SubmitGet(g.tid, key(g)) }},
		},
		State: func() []uint64 { return pairs(m.Range) },
		Model: mapModel,
	}
	if o.Epoch {
		sp.Stamp = func() uint64 { return m.EpochClosed() }
		// Staged, a sync commits the window so far first.
		sp.Ops = append(sp.Ops, OpDef{Weight: 1, Do: func(g *gen) { m.Sync() },
			Submit: func(g *gen) { m.Flush(g.tid); m.Sync() }})
	}
	return sp
}

// mapModel is the per-key model of every map-shaped structure: the hash map,
// the fabric (whose transaction legs are recorded per leg) and the server's
// store.
var mapModel = Keyed{New: func(init uint64) lin.Model { return lin.MapKeyModel{Initial: init} }, Read: lin.KindGet}

// fabAccount is the j-th transfer account, in a key range no scalar operation
// touches: an account's balance is exactly the sum of the transfer deltas
// applied to it.
func fabAccount(j int) uint64 { return 1<<48 | uint64(j) + 1 }

// fabricSpec is the sharded combining fabric: scalar operations on per-thread
// keys, TransferAdd between two accounts of a shared pool and PutAll over a
// few of the thread's keys — cross-shard transactions a crash may catch
// before their record's commit point (discarded whole), after it (replayed to
// completion by Recover) or inside recovery. Whatever happens the accounts must sum to
// zero: transfers move opposite deltas, so only a torn one can break that.
//
// Every engine runs the hierarchical mode, the one users get: the board's
// sweeper is one of the workers, so once they have unwound nothing is left to
// touch the heap between TriggerCrash and FinishCrash.
func fabricSpec(kind pcomb.Kind) *Spec {
	var m *pcomb.ShardedMap
	key := func(g *gen, k int) uint64 { return uint64(g.tid)<<32 | uint64(k%fabKeys) + 1 }
	return &Spec{
		Name: "fabric/" + pfx(kind) + "fabric",
		Open: func(h *pmem.Heap, n int) Handle {
			m = pcomb.NewOn(h).NewShardedMap("f", n, kind, pcomb.ShardedMapOptions{
				Fabric: fabShards, Capacity: 4 * (fabAccounts + fabKeys*n), // a quarter full at most
			})
			return m
		},
		Ops: []OpDef{
			{Weight: 3, Do: func(g *gen) { m.Put(g.tid, key(g, g.Intn(fabKeys)), g.val()) }},
			{Weight: 3, Do: func(g *gen) { m.Delete(g.tid, key(g, g.Intn(fabKeys))) }},
			// Half of all steps: validated reads of a shard's last durable record,
			// beside the sweeps and transaction groups that move it.
			{Weight: 10, Do: func(g *gen) { m.Get(g.tid, key(g, g.Intn(fabKeys))) }},
			{Weight: 3, Do: func(g *gen) {
				from := g.Intn(fabAccounts)
				to := (from + 1 + g.Intn(fabAccounts-1)) % fabAccounts
				// Multiples of 4: balances random-walk on them (mod 2^64) and so
				// never collide with the NotFound (3 mod 4) or Full (2 mod 4)
				// sentinels.
				m.TransferAdd(g.tid, fabAccount(from), fabAccount(to), uint64(4*(1+g.Intn(8))))
			}},
			{Weight: 1, Do: func(g *gen) {
				first, legs := g.Intn(fabKeys), make([]pcomb.TxnLeg, 2+g.Intn(2))
				for l := range legs {
					legs[l] = pcomb.TxnLeg{Key: key(g, first+l), Val: g.val() + uint64(l)<<4}
				}
				m.PutAll(g.tid, legs)
			}},
		},
		State: func() []uint64 { return pairs(m.Range) },
		Model: mapModel,
		Invariant: func() error {
			var sum uint64
			m.Range(func(k, v uint64) bool {
				if k>>48 == 1 {
					sum += v
				}
				return true
			})
			if sum != 0 {
				return fmt.Errorf("transfer conservation violated: accounts sum to %d (mod 2^64)", sum)
			}
			return nil
		},
	}
}
