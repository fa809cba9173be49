// pcomb-trace prints the persistence schedule — every pwb/pfence/psync with
// the cache lines it covers — of one operation under each algorithm, plus
// dispersion statistics. It makes the paper's Definition 2 principles
// directly observable:
//
//   - principle 1 (few instructions): compare the schedule lengths;
//   - principle 2 (cheap instructions): psyncs per op;
//   - principle 3 (consecutive addresses): the consecutivity column — how
//     many distinct cache lines are covered per maximal contiguous run.
//
// Usage:
//
//	pcomb-trace            # all algorithms, one enqueue+dequeue each
//	pcomb-trace -v         # additionally dump every instruction
package main

import (
	"flag"
	"fmt"
	"os"

	"pcomb/internal/baselines/ptm"
	"pcomb/internal/baselines/queues"
	"pcomb/internal/baselines/stacks"
	"pcomb/internal/core"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/queue"
	"pcomb/internal/stack"
)

func main() {
	verbose := flag.Bool("v", false, "dump every traced instruction")
	chrome := flag.String("chrome", "", "write a Chrome trace-event JSON file (load in chrome://tracing or Perfetto)")
	jsonOut := flag.String("json", "", "append one JSONL dispersion record per algorithm to this file ('-' for stdout)")
	flag.Parse()

	type target struct {
		name string
		// run builds the structure (untraced warm-up included) and returns
		// the operation pair to trace.
		run func(h *pmem.Heap) func()
	}

	targets := []target{
		{"PBqueue enq+deq", func(h *pmem.Heap) func() {
			q := queue.NewOn(h, "t", 1, queue.Blocking, queue.Options{Recycling: true, Capacity: 1024, ChunkSize: 16}, nil, 0)
			q.Enqueue(0, 1) // warm-up: chunk acquisition etc.
			q.Dequeue(0)
			return func() {
				q.Enqueue(0, 2)
				q.Dequeue(0)
			}
		}},
		{"PWFqueue enq+deq", func(h *pmem.Heap) func() {
			q := queue.NewOn(h, "t", 1, queue.WaitFree, queue.Options{Capacity: 1024, ChunkSize: 16}, nil, 0)
			q.Enqueue(0, 1)
			q.Dequeue(0)
			return func() {
				q.Enqueue(0, 2)
				q.Dequeue(0)
			}
		}},
		{"PBstack push+pop", func(h *pmem.Heap) func() {
			s := stack.New(h, "t", 1, stack.Blocking, stack.Options{Recycling: true, Capacity: 1024, ChunkSize: 16})
			s.Push(0, 1)
			s.Pop(0)
			return func() {
				s.Push(0, 2)
				s.Pop(0)
			}
		}},
		{"DFC push+pop", func(h *pmem.Heap) func() {
			s := stacks.New(h, "t", 1, 1024)
			s.Push(0, 1)
			s.Pop(0)
			return func() {
				s.Push(0, 2)
				s.Pop(0)
			}
		}},
		{"FHMP enq+deq", func(h *pmem.Heap) func() {
			q := queues.New(h, "t", queues.FHMP, 1, 1024)
			q.Enqueue(0, 1)
			q.Dequeue(0)
			return func() {
				q.Enqueue(0, 2)
				q.Dequeue(0)
			}
		}},
		{"OptUnlinkedQ enq+deq", func(h *pmem.Heap) func() {
			q := queues.New(h, "t", queues.OptUnlinked, 1, 1024)
			q.Enqueue(0, 1)
			q.Dequeue(0)
			return func() {
				q.Enqueue(0, 2)
				q.Dequeue(0)
			}
		}},
		{"Redo txn", func(h *pmem.Heap) func() {
			p := ptm.New(h, "t", ptm.Redo, 1, 64)
			inc := func(tx *ptm.Tx) uint64 { v := tx.Load(0); tx.Store(0, v+1); return v }
			p.Update(0, inc)
			return func() { p.Update(0, inc); p.Update(0, inc) }
		}},
		{"OneFile txn", func(h *pmem.Heap) func() {
			p := ptm.New(h, "t", ptm.OneFile, 1, 64)
			inc := func(tx *ptm.Tx) uint64 { v := tx.Load(0); tx.Store(0, v+1); return v }
			p.Update(0, inc)
			return func() { p.Update(0, inc); p.Update(0, inc) }
		}},
		{"PMDK txn", func(h *pmem.Heap) func() {
			p := ptm.New(h, "t", ptm.Undo, 1, 64)
			inc := func(tx *ptm.Tx) uint64 { v := tx.Load(0); tx.Store(0, v+1); return v }
			p.Update(0, inc)
			return func() { p.Update(0, inc); p.Update(0, inc) }
		}},
		{"PBcomb AtomicFloat", func(h *pmem.Heap) func() {
			c := core.NewPBComb(h, "t", 1, core.AtomicFloat{Initial: 1})
			c.Invoke(0, core.OpAtomicFloatMul, 4607182463836013682, 0, 1)
			return func() {
				c.Invoke(0, core.OpAtomicFloatMul, 4607182463836013682, 0, 2)
				c.Invoke(0, core.OpAtomicFloatMul, 4607182463836013682, 0, 3)
			}
		}},
	}

	var jsonW *os.File
	if *jsonOut == "-" {
		jsonW = os.Stdout
	} else if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "json output: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		jsonW = f
	}

	var chromeTraces []obs.NamedTrace
	fmt.Printf("%-22s %6s %6s %6s %6s %6s %14s\n",
		"algorithm (2 ops)", "pwbs", "lines", "runs", "fences", "syncs", "consecutivity")
	for _, tg := range targets {
		h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
		op := tg.run(h)
		events := traceAll(h, op)
		report(tg.name, events, *verbose)
		if *chrome != "" {
			chromeTraces = append(chromeTraces, obs.NamedTrace{Name: tg.name, Events: events})
		}
		if jsonW != nil {
			d := pmem.Dispersal(events)
			rec := struct {
				Algorithm     string  `json:"algorithm"`
				Pwbs          int     `json:"pwbs"`
				Lines         int     `json:"lines"`
				Runs          int     `json:"runs"`
				Fences        int     `json:"fences"`
				Syncs         int     `json:"syncs"`
				Consecutivity float64 `json:"consecutivity"`
			}{tg.name, d.Pwbs, d.Lines, d.Runs, d.Fences, d.Syncs, d.Consecutivity}
			if err := obs.AppendJSONL(jsonW, rec); err != nil {
				fmt.Fprintf(os.Stderr, "json output: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chrome trace: %v\n", err)
			os.Exit(2)
		}
		if err := obs.WriteChromeTrace(f, chromeTraces); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "chrome trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "chrome trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *chrome)
	}
}

// traceAll starts tracing on every context of the heap, runs op, and merges
// the recorded events.
func traceAll(h *pmem.Heap, op func()) []pmem.TraceEvent {
	h.StartTraceAll()
	op()
	return h.StopTraceAll()
}

func report(name string, events []pmem.TraceEvent, verbose bool) {
	d := pmem.Dispersal(events)
	fmt.Printf("%-22s %6d %6d %6d %6d %6d %14.2f\n",
		name, d.Pwbs, d.Lines, d.Runs, d.Fences, d.Syncs, d.Consecutivity)
	if verbose {
		for _, e := range events {
			fmt.Printf("    %s\n", e)
		}
	}
}
