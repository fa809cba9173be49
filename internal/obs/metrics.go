package obs

// Metrics bundles the per-run instrumentation of one measured point: a
// per-thread-sharded operation-latency histogram and, when the algorithm
// under test supports it, combiner statistics.
type Metrics struct {
	// Latency holds per-operation latencies in nanoseconds.
	Latency *ShardedHist
	// Comb receives combining-protocol events (install as core.Probe.Comb).
	Comb *CombStats
}

// NewMetrics creates a metrics sink for n threads.
func NewMetrics(n int) *Metrics {
	return &Metrics{Latency: NewShardedHist(n), Comb: NewCombStats(n)}
}

// RecordLatency records one operation latency (ns) for thread tid.
func (m *Metrics) RecordLatency(tid int, ns uint64) { m.Latency.Record(tid, ns) }

// LatencySummary is the exported quantile summary of an operation-latency
// histogram (nanoseconds).
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p999"`
	MaxNs  uint64  `json:"max"`
}

// LatencySummary snapshots the latency histogram. Returns nil when nothing
// was recorded.
func (m *Metrics) LatencySummary() *LatencySummary {
	h := m.Latency.Snapshot()
	if h.Count() == 0 {
		return nil
	}
	return &LatencySummary{
		Count:  h.Count(),
		MeanNs: h.Mean(),
		P50:    h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
		MaxNs:  h.Max(),
	}
}

// Extra flattens the metrics into named scalar series values (the
// harness.Result.Extra format), normalizing combiner counters by ops.
func (m *Metrics) Extra(ops uint64) map[string]float64 {
	out := map[string]float64{}
	if ls := m.LatencySummary(); ls != nil {
		out["lat-mean-ns"] = ls.MeanNs
		out["lat-p50-ns"] = ls.P50
		out["lat-p95-ns"] = ls.P95
		out["lat-p99-ns"] = ls.P99
		out["lat-p999-ns"] = ls.P999
	}
	cs := m.Comb.Snapshot()
	if cs.Rounds > 0 && ops > 0 {
		fops := float64(ops)
		out["comb-degree-mean"] = cs.MeanDegree
		out["comb-degree-p99"] = cs.DegreeP99
		out["comb-rounds/op"] = float64(cs.Rounds) / fops
		out["helped/op"] = float64(cs.HelpedOps) / fops
		out["lock-fails/op"] = float64(cs.LockFails) / fops
		out["sc-fails/op"] = float64(cs.SCFails) / fops
		out["copy-words/op"] = float64(cs.CopyWords) / fops
	}
	if cs.Batches > 0 {
		out["batch-size-mean"] = cs.BatchMeanSize
		out["batch-size-p99"] = float64(cs.BatchP99)
	}
	return out
}
