package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestWaitRuleAndLiveness runs concurrent counter adds on both protocols with
// the instance's wait loops on each path: under GOMAXPROCS(1) every thread
// shares one processor and the loops must yield to stay live; under
// GOMAXPROCS(n) every thread has one and the loops spin first.
func TestWaitRuleAndLiveness(t *testing.T) {
	const per = 20000
	for _, k := range readKinds[:2] {
		for _, n := range []int{2, 4} {
			for _, procs := range []int{1, n} {
				t.Run(fmt.Sprintf("%s/n%d/procs%d", k.name, n, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					p := k.mk(shadowHeap(), n, Counter{})
					if got, want := combOf(p).spin, n <= procs; got != want {
						t.Fatalf("spin = %v with %d threads on %d Ps, want %v", got, n, procs, want)
					}
					var wg sync.WaitGroup
					for tid := 0; tid < n; tid++ {
						wg.Add(1)
						go func(tid int) {
							defer wg.Done()
							for i := 0; i < per; i++ {
								p.Invoke(tid, OpCounterAdd, 1, 0, uint64(i)+1)
							}
						}(tid)
					}
					wg.Wait()
					if v := p.CurrentState().Load(0); v != uint64(n*per) {
						t.Fatalf("counter = %d, want %d", v, n*per)
					}
				})
			}
		}
	}
}
