// Quickstart: create a recoverable stack and counter, operate on them from
// multiple goroutines, crash the simulated machine, and recover — the
// 60-second tour of the pcomb API.
package main

import (
	"fmt"
	"sync"

	"pcomb"
)

// counter is a user-defined sequential object made concurrent and
// recoverable by the combining protocols (the paper's universal
// construction usage: any sequential object works).
type counter struct{}

func (counter) StateWords() int    { return 1 }
func (counter) Init(s pcomb.State) { s.Store(0, 0) }
func (counter) Apply(env *pcomb.Env, r *pcomb.Request) {
	old := env.State.Load(0)
	env.State.Store(0, old+r.A0)
	r.Ret = old
}

func main() {
	const threads = 4

	// CrashTesting keeps a durable shadow of every persistent region so we
	// can simulate a power failure later.
	sys := pcomb.New(pcomb.Options{CrashTesting: true})

	// A recoverable LIFO stack on the blocking protocol (PBstack)...
	st := sys.NewStack("demo-stack", threads, pcomb.Blocking)
	// ...and a recoverable fetch&add counter on the wait-free one (PWFcomb).
	cnt := sys.NewObject("demo-counter", threads, pcomb.WaitFree, counter{})

	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.Push(tid, uint64(tid)*1000+uint64(i))
				cnt.Invoke(tid, 1 /*op*/, 1 /*delta*/, 0)
				if i%3 == 0 {
					st.Pop(tid)
				}
			}
		}(tid)
	}
	wg.Wait()

	fmt.Printf("before crash: stack holds %d values, counter = %d\n",
		st.Len(), cnt.State().Load(0))
	stats := sys.Stats()
	fmt.Printf("persistence instructions so far: %d pwb, %d pfence, %d psync\n",
		stats.Pwbs, stats.Pfences, stats.Psyncs)

	// Power failure: volatile contents vanish; only what was written back
	// (or still sat in a fenced write-back) survives.
	sys.Crash(pcomb.DropUnfenced, 7)

	// Restart: re-open both structures by name and resolve any interrupted
	// operations (none here — we crashed at quiescence).
	st = sys.NewStack("demo-stack", threads, pcomb.Blocking)
	cnt = sys.NewObject("demo-counter", threads, pcomb.WaitFree, counter{})
	for tid := 0; tid < threads; tid++ {
		for _, r := range st.Recover(tid) {
			fmt.Printf("thread %d: recovered stack op %d -> %d\n", tid, r.Op, r.Result)
		}
		for _, r := range cnt.Recover(tid) {
			fmt.Printf("thread %d: recovered counter op %d -> %d\n", tid, r.Op, r.Result)
		}
	}

	fmt.Printf("after recovery: stack holds %d values, counter = %d\n",
		st.Len(), cnt.State().Load(0))
	if v, ok := st.Pop(0); ok {
		fmt.Printf("stack still pops: %d\n", v)
	}
}
