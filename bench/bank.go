package main

import (
	"math"
	"math/rand"
	"sort"
)

// fabric_bank: reads beside writes on one sharded structure, on PWFcomb.
// T threads issue 50 % Get, 40 % Add(+1) and 10 % TransferAdd(1) between two
// distinct accounts, keys drawn Zipf(0.99) over 2048 preloaded accounts.

const (
	bankGet = iota
	bankAdd
	bankTransfer
)

var bankClasses = []class{
	bankGet:      {name: "Get", span: "fabric.get", read: true},
	bankAdd:      {name: "Add", span: "fabric.add"},
	bankTransfer: {name: "TransferAdd", span: "fabric.transfer"},
}

type bankOp struct {
	kind uint8
	a, b uint16 // account indices; b is the transfer's destination
}

// bankScriptLen operations per thread are generated before timing starts and
// replayed in a cycle.
const bankScriptLen = 1 << 16

type bank struct {
	sys    *system
	m      *shardedMap
	script [][]bankOp
	// delta[t][a] is what thread t's completed operations added to account a.
	delta [][]int64
}

// zipf draws ranks in [0, n) with P(rank r) proportional to 1/(r+1)^theta.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) zipf {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), theta)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}

func bankKey(account int) uint64 { return uint64(account) + 1 }

// prepareBank generates every thread's operations from the seed; the returned
// function is the set-up proper: build the fabric and preload the accounts.
func prepareBank(cfg trialCfg) func() (instance, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	z := newZipf(bankAccounts, 0.99)
	hot := rng.Perm(bankAccounts) // which accounts are popular depends on the seed
	b := &bank{script: make([][]bankOp, cfg.threads), delta: make([][]int64, cfg.threads)}
	for t := range b.script {
		ops := make([]bankOp, bankScriptLen)
		for i := range ops {
			op := bankOp{a: uint16(hot[z.draw(rng)])}
			switch p := rng.Intn(100); {
			case p < 50:
				op.kind = bankGet
			case p < 90:
				op.kind = bankAdd
			default:
				op.kind = bankTransfer
				for op.b = op.a; op.b == op.a; {
					op.b = uint16(hot[z.draw(rng)])
				}
			}
			ops[i] = op
		}
		b.script[t] = ops
		b.delta[t] = make([]int64, bankAccounts)
	}

	return func() (instance, error) {
		b.sys = newSystem(false)
		b.m = newBank(b.sys, cfg.threads, false)
		for a := 0; a < bankAccounts; a++ {
			b.m.Put(0, bankKey(a), bankInitial)
		}
		return b, nil
	}
}

func (b *bank) heapStats() pmemStats { return b.sys.Stats() }
func (b *bank) begin(bool)           {}

func (b *bank) layer(traced bool, m *measured, out map[string]float64) {
	if !traced {
		return
	}
	out["fabric.get_p50_us"] = m.byClass[bankGet].quantileUs(0.5)
	out["fabric.add_p50_us"] = m.byClass[bankAdd].quantileUs(0.5)
	out["fabric.transfer_p50_us"] = m.byClass[bankTransfer].quantileUs(0.5)
}

func (b *bank) run(w *worker, ph phase) {
	tid, script, delta := w.id, b.script[w.id], b.delta[w.id]
	for i := w.seq; ; i++ {
		timed := ph.traced || i%sampleStride == 0
		var t0 int64
		if timed {
			if t0 = now(); t0 >= ph.deadline {
				w.seq = i
				return
			}
		}
		op := script[i%bankScriptLen]
		switch op.kind {
		case bankGet:
			// Balances move under concurrent writers, so a read is checked
			// for presence here and every account exactly at the end.
			if _, ok := b.m.Get(tid, bankKey(int(op.a))); !ok {
				w.failed++
			}
		case bankAdd:
			b.m.Add(tid, bankKey(int(op.a)), 1)
			delta[op.a]++
		case bankTransfer:
			b.m.TransferAdd(tid, bankKey(int(op.a)), bankKey(int(op.b)), 1)
			delta[op.a]--
			delta[op.b]++
		}
		if timed {
			w.record(ph.traced, bankClasses[op.kind], int(op.kind), i, t0, now())
		}
		w.ops++
	}
}

func (b *bank) finish(map[string]float64) (failed uint64, err error) {
	if corrupt == "balance" {
		b.m.Add(0, bankKey(7), 1)
	}
	total := int64(bankAccounts * bankInitial)
	for a := 0; a < bankAccounts; a++ {
		bal := int64(bankInitial)
		for t := range b.delta {
			bal += b.delta[t][a]
		}
		if got, ok := b.m.Get(0, bankKey(a)); !ok || got != uint64(bal) {
			failed++
		}
		total += bal - bankInitial
	}
	// Transfers conserve the sum, so it moved only by the Adds.
	if b.m.SumValues() != uint64(total) {
		failed++
	}
	b.m.Close()
	return failed, nil
}
