package crashtest

import (
	"fmt"
	"math/rand"

	"pcomb/internal/fabric"
	lin "pcomb/internal/linearizability"
	"pcomb/internal/pmem"
)

const (
	killFabShards = 4
	// killFabAccounts is the global account pool all threads transfer within.
	// Accounts span the shards, so most transfers are genuinely cross-shard:
	// two durable groups with a single-word commit point between them.
	killFabAccounts = 16
)

// fabricKT is the process-kill bank-transfer target: a hierarchical sharded
// fabric whose workload is cross-shard TransferAdd transactions over a global
// account pool (plus unjournaled balance reads to keep the combiner boards
// busy). The SIGKILL can land anywhere — between a transaction's prepare and
// its commit word (discarded wholesale), between the commit word and a shard
// group's application (replayed to completion by recovery), or inside a
// recovery pass itself. The verifier holds the reattached fabric to:
//
//   - conservation: every transfer moves opposite two's-complement deltas, so
//     the sum of all balances mod 2^64 is exactly zero after every recovery —
//     a torn transaction (one leg durable, the other lost) is the only way to
//     break it;
//   - durable linearizability per account: both legs of every transfer are
//     journaled individually (with the per-leg results recovery reports), so
//     the round's history checks against the per-key fetch&add model.
//
// Unlike the simulation drivers, the hierarchical mode's per-shard combiner
// goroutines are safe here: a SIGKILL needs no unwinding, and the verifier's
// own instance is closed after each pass (killVerify's Close hook).
type fabricKT struct {
	kind fabric.Kind
	name string
	n    int
	m    *fabric.Map
}

func (t *fabricKT) Name() string { return t.name }

func (t *fabricKT) Attach(h *pmem.Heap, n int) {
	t.n = n
	t.m = fabric.New(h, "kf", n, fabric.Options{
		Shards: killFabShards, Kind: t.kind, Capacity: killFabShards * 64,
	})
}

// Close stops the combiner goroutines; killVerify calls it after each
// parent-side pass (children die by SIGKILL or exit, taking theirs along).
func (t *fabricKT) Close() { t.m.Close() }

func killFabAcct(r *rand.Rand) uint64 { return uint64(r.Intn(killFabAccounts)) + 1 }

func (t *fabricKT) Step(j *Journal, tid, i int, round uint64, rng *rand.Rand) {
	if i%2 == 0 {
		// Unjournaled balance read: keeps the boards and combiners busy and
		// spreads persistence events between transfers, so kill points land
		// at every phase of neighboring transactions. Reads have no effect,
		// so an interrupted one needs no journal record (Resolve tolerates a
		// pending OpGet with no open record).
		t.m.Get(tid, killFabAcct(rng))
		return
	}
	from := killFabAcct(rng)
	to := killFabAcct(rng)
	for to == from {
		to = killFabAcct(rng)
	}
	// Amounts are multiples of 4: balances random-walk on multiples of 4
	// (mod 2^64) and can never collide with the NotFound/Full sentinels.
	amt := uint64(4 * (1 + rng.Intn(8)))
	// One journal record per leg, committed before the transaction is
	// invoked: a kill mid-transaction leaves exactly these two records open,
	// and recovery's per-leg results resolve them individually.
	_, fromIdx := j.Begin(tid, 0, fabric.OpAdd, from, -amt)
	_, toIdx := j.Begin(tid, 0, fabric.OpAdd, to, amt)
	fromNew, toNew := t.m.TransferAdd(tid, from, to, amt)
	j.End(tid, fromIdx, fromNew)
	j.End(tid, toIdx, toNew)
}

func (t *fabricKT) Resolve(j *Journal, tid int) error {
	legs := t.m.Recover(tid)
	if len(legs) == 1 && legs[0].Op == fabric.OpGet {
		// An interrupted scalar read resolves silently.
		return nil
	}
	if len(legs) > 0 {
		// A committed transaction was in flight: its legs are now applied
		// exactly once (already-applied groups fetched, the rest executed),
		// and they correspond to the thread's trailing journal records —
		// both Begins precede the commit word, and nothing can follow an
		// unfinished transaction.
		recs := j.Records(tid)
		if len(recs) < len(legs) {
			return fmt.Errorf("%s: tid %d recovered %d legs but journal has %d records",
				t.name, tid, len(legs), len(recs))
		}
		tail := recs[len(recs)-len(legs):]
		for i, leg := range legs {
			rec := tail[i]
			if leg.Op != fabric.OpAdd || rec.Kind != leg.Op || rec.A0 != leg.A0 || rec.A1 != leg.A1 {
				return fmt.Errorf("%s: tid %d leg %d recovered (%d,%x,%x), journal says (%d,%x,%x)",
					t.name, tid, i, leg.Op, leg.A0, leg.A1, rec.Kind, rec.A0, rec.A1)
			}
			if rec.State == recOpen {
				j.MarkRecovered(tid, rec.Idx, leg.Result)
				continue
			}
			// A previous (killed) pass already recorded this leg's response;
			// the replayed result must reproduce it exactly (idempotence).
			if rec.Out != leg.Result {
				return fmt.Errorf("%s: tid %d leg %d double recovery diverged: %d then %d",
					t.name, tid, i, rec.Out, leg.Result)
			}
		}
		return nil
	}
	// Nothing in flight. Open records, if any, belong to a transaction killed
	// before its commit word (discarded wholesale — they stay pending and the
	// checker lets them vanish) or one whose recovery already finished txDone.
	return nil
}

func (t *fabricKT) Verify(j *Journal, initial []uint64, opts DurLinOpts) (bool, error) {
	// The atomicity audit: transfers move opposite deltas, so the durable
	// balances must sum to zero mod 2^64 after every recovery, kills or not.
	if sum := t.m.SumValues(); sum != 0 {
		return true, fmt.Errorf("%s: conservation violated: balances sum to %d (mod 2^64)", t.name, sum)
	}
	opts = durLinDefaults(opts)
	hist := killHistory(j, t.n, 0)
	initVals := map[uint64]uint64{}
	for i := 0; i+1 < len(initial); i += 2 {
		initVals[initial[i]] = initial[i+1]
	}
	final := map[uint64]uint64{}
	t.m.Range(func(k, v uint64) bool {
		final[k] = v
		return true
	})
	touched := map[uint64]bool{}
	for _, op := range hist {
		touched[op.Arg] = true
	}
	var audits []lin.Op
	for k := range touched {
		out := lin.EmptyOut
		if v, ok := final[k]; ok {
			out = v
		}
		audits = append(audits, lin.Op{Kind: lin.KindGet, Arg: k, Out: out})
	}
	hist = lin.AppendAudits(hist, audits...)
	res := lin.CheckDurablePartitioned(func(class uint64) lin.Model {
		init := lin.EmptyOut
		if v, ok := initVals[class]; ok {
			init = v
		}
		return lin.MapKeyModel{Initial: init}
	}, func(op lin.Op) uint64 { return op.Arg }, hist, lin.Opts{Budget: opts.Budget})
	return killVerdict(res)
}

func (t *fabricKT) Snapshot() []uint64 {
	var out []uint64
	t.m.Range(func(k, v uint64) bool {
		out = append(out, k, v)
		return true
	})
	return out
}
