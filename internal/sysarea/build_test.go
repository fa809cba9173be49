package sysarea_test

import (
	"testing"

	"pcomb/internal/core"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
	"pcomb/internal/sysarea"
)

var protocolKinds = []struct {
	name string
	kind core.Kind
}{{"PB", core.Blocking}, {"PWF", core.WaitFree}}

// An instance Build makes on an epoch area boots strictly and then defers its
// write-backs into the epoch until it closes; one made on a strict area
// writes back in every round.
func TestBuildAttachesTheAreasEpoch(t *testing.T) {
	for _, k := range protocolKinds {
		t.Run(k.name, func(t *testing.T) {
			for _, epoch := range []bool{false, true} {
				h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
				var ep *pmem.Epoch
				if epoch {
					ep = pmem.NewEpoch(h, "a", pmem.EpochOpts{})
				}
				a := sysarea.New(h, "a/sysarea", 1, 1, k.kind, ep, 1)
				a.Build(0, "a", core.Counter{})
				if h.Stats().Pwbs == 0 {
					t.Fatalf("epoch %v: booting the instance wrote nothing back", epoch)
				}
				before := h.Stats().Pwbs
				for range 4 {
					a.Invoke(0, 0, core.OpCounterAdd, 1, 0)
				}
				rounds := h.Stats().Pwbs - before
				switch {
				case epoch && rounds != 0:
					t.Fatalf("epoch area: 4 rounds wrote back %d lines before the epoch closed", rounds)
				case !epoch && rounds == 0:
					t.Fatal("strict area: 4 rounds wrote nothing back")
				}
				if epoch {
					ep.CloseNow()
					if h.Stats().Pwbs == before {
						t.Fatal("epoch area: closing the epoch wrote nothing back")
					}
				}
			}
		})
	}
}

// On a shared area, SetProbe reaches the instances of exactly the classes it
// names, and the area's window records its resolve spans; the zero Probe
// uninstalls both.
func TestSetProbeReachesItsClasses(t *testing.T) {
	for _, k := range protocolKinds {
		t.Run(k.name, func(t *testing.T) {
			h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
			a := sysarea.New(h, "a/sysarea", 1, 3, k.kind, nil, 4)
			for c, name := range []string{"a/0", "a/1", "a/2"} {
				a.Build(c, name, core.Counter{})
			}
			st, spans := obs.NewCombStats(1), obs.NewSpanLog(1, 1<<10)
			a.SetProbe(core.Probe{Comb: st, Spans: spans}, 0, 2)
			rounds := func() uint64 { return st.Snapshot().Rounds }
			resolves := func() uint64 { return spans.PhaseHist(obs.PhaseResolve).Count() }
			for c, want := range []uint64{1, 1, 2} {
				a.Invoke(0, c, core.OpCounterAdd, 1, 0)
				if got := rounds(); got != want {
					t.Fatalf("after a round on class %d the probe saw %d rounds, want %d", c, got, want)
				}
			}
			a.Submit(0, 1, core.OpCounterAdd, 1, 0)
			a.Flush(0)
			if got := resolves(); got != 1 {
				t.Fatalf("a window flush recorded %d resolve spans, want 1", got)
			}

			a.SetProbe(core.Probe{})
			for c := 0; c < 3; c++ {
				a.Invoke(0, c, core.OpCounterAdd, 1, 0)
			}
			a.Submit(0, 0, core.OpCounterAdd, 1, 0)
			a.Flush(0)
			if rounds() != 2 || resolves() != 1 {
				t.Fatalf("after uninstalling: %d rounds, %d resolve spans; want 2 and 1", rounds(), resolves())
			}
		})
	}
}
