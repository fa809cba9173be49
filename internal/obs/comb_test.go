package obs

import "testing"

func TestCombStatsSnapshot(t *testing.T) {
	s := NewCombStats(4)
	// Two rounds of degree 4 and 2 by different threads, plus some helped
	// ops and failures.
	s.Round(0, 4)
	s.Round(1, 2)
	s.Helped(2)
	s.Helped(3)
	s.Helped(3)
	s.LockFail(2)
	s.SCFail(1)
	s.Copied(0, 128)
	s.Copied(1, 128)
	s.ReadFallback(3)

	cs := s.Snapshot()
	if cs.Rounds != 2 || cs.CombinedOps != 6 || cs.HelpedOps != 3 {
		t.Fatalf("rounds=%d combined=%d helped=%d", cs.Rounds, cs.CombinedOps, cs.HelpedOps)
	}
	if cs.LockFails != 1 || cs.SCFails != 1 {
		t.Fatalf("lockFails=%d scFails=%d", cs.LockFails, cs.SCFails)
	}
	if cs.Copies != 2 || cs.CopyWords != 256 {
		t.Fatalf("copies=%d copyWords=%d", cs.Copies, cs.CopyWords)
	}
	if cs.ReadFallbacks != 1 {
		t.Fatalf("readFallbacks=%d", cs.ReadFallbacks)
	}
	if cs.MeanDegree != 3 {
		t.Fatalf("mean degree = %.2f, want 3", cs.MeanDegree)
	}
	if cs.DegreeMax != 4 {
		t.Fatalf("degree max = %d", cs.DegreeMax)
	}
	if len(cs.DegreeDist) == 0 {
		t.Fatal("empty degree distribution")
	}
	var n uint64
	for _, b := range cs.DegreeDist {
		n += b.Count
	}
	if n != cs.Rounds {
		t.Fatalf("degree dist covers %d rounds, want %d", n, cs.Rounds)
	}
}

func TestCombStatsEmpty(t *testing.T) {
	cs := NewCombStats(2).Snapshot()
	if cs.Rounds != 0 || cs.MeanDegree != 0 || len(cs.DegreeDist) != 0 {
		t.Fatalf("non-zero snapshot of untouched stats: %+v", cs)
	}
}

func TestMetricsExtra(t *testing.T) {
	m := NewMetrics(2)
	if len(m.Extra(100)) != 0 {
		t.Fatal("untouched metrics produced Extra keys")
	}
	for i := uint64(1); i <= 100; i++ {
		m.RecordLatency(0, i*10)
	}
	m.Comb.Round(0, 5)
	m.Comb.Round(1, 3)
	ex := m.Extra(8)
	for _, k := range []string{
		"lat-mean-ns", "lat-p50-ns", "lat-p95-ns", "lat-p99-ns", "lat-p999-ns",
		"comb-degree-mean", "comb-degree-p99", "comb-rounds/op",
		"helped/op", "lock-fails/op", "sc-fails/op", "copy-words/op",
	} {
		if _, ok := ex[k]; !ok {
			t.Fatalf("Extra missing %q: %v", k, ex)
		}
	}
	if ex["comb-degree-mean"] != 4 {
		t.Fatalf("comb-degree-mean = %v", ex["comb-degree-mean"])
	}
	if ex["comb-rounds/op"] != 0.25 {
		t.Fatalf("comb-rounds/op = %v", ex["comb-rounds/op"])
	}
	if ls := m.LatencySummary(); ls == nil || ls.Count != 100 || ls.MaxNs != 1000 {
		t.Fatalf("latency summary %+v", ls)
	}
}
