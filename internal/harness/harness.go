// Package harness drives the paper's evaluation: it reproduces the workload
// of Section 6 (10^7/n operations per thread with a random local-work loop
// of at most 512 dummy iterations between operations) and regenerates every
// figure and table as printable series.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// LocalWorkMax is the paper's bound on the random local-work loop.
const LocalWorkMax = 512

// OpFunc executes the i-th operation of thread tid.
type OpFunc func(tid int, i uint64, rng *rand.Rand)

// Result is one measured point of a series.
type Result struct {
	Algorithm    string
	Threads      int
	Ops          uint64
	Elapsed      time.Duration
	Mops         float64
	PwbsPerOp    float64
	PfencesPerOp float64
	PsyncsPerOp  float64
	// Extra holds additional named metrics (latency quantiles, combining
	// stats, ...); PrintSeries and PrintSeriesChart can render any key.
	Extra map[string]float64
	// Obs is the point's metrics sink when measured with instrumentation
	// (MeasureMetrics / Config.Metrics); nil otherwise.
	Obs *obs.Metrics
}

// Metric returns the named metric of this point: "Mops" (also "", "mops",
// "Mops/s"), "pwbs/op", "pfences/op", "psyncs/op", or any Result.Extra key.
func (r Result) Metric(name string) (float64, bool) {
	switch name {
	case "", "mops", "Mops", "Mops/s":
		return r.Mops, true
	case "pwbs/op":
		return r.PwbsPerOp, true
	case "pfences/op":
		return r.PfencesPerOp, true
	case "psyncs/op":
		return r.PsyncsPerOp, true
	}
	v, ok := r.Extra[name]
	return v, ok
}

// Record shapes the point as a structured JSONL export record.
func (r Result) Record(figure string) obs.RunRecord {
	rec := obs.RunRecord{
		Figure:       figure,
		Algorithm:    r.Algorithm,
		Threads:      r.Threads,
		Ops:          r.Ops,
		ElapsedNs:    r.Elapsed.Nanoseconds(),
		Mops:         r.Mops,
		PwbsPerOp:    r.PwbsPerOp,
		PfencesPerOp: r.PfencesPerOp,
		PsyncsPerOp:  r.PsyncsPerOp,
		Extra:        r.Extra,
	}
	if r.Obs != nil {
		rec.Latency = r.Obs.LatencySummary()
		if cs := r.Obs.Comb.Snapshot(); cs.Rounds > 0 {
			rec.Combining = &cs
		}
	}
	return rec
}

// Series is one line of a figure: an algorithm across thread counts.
type Series struct {
	Name   string
	Points []Result
}

// Measure runs totalOps operations split across n goroutines, with the
// paper's local-work loop between operations, and reports throughput plus
// per-operation persistence-instruction counts from the heap.
func Measure(alg string, h *pmem.Heap, n int, totalOps uint64, op OpFunc) Result {
	return measure(alg, h, n, totalOps, op, nil, nil)
}

// MeasureMetrics is Measure with per-operation latency recording into m's
// histogram; the returned Result carries m and the flattened metric values
// in Extra. Install m.Comb on the structure under test
// (SetProbe(core.Probe{Comb: m.Comb})) before measuring to also collect
// combining statistics.
func MeasureMetrics(alg string, h *pmem.Heap, n int, totalOps uint64, op OpFunc, m *obs.Metrics) Result {
	if m == nil {
		m = obs.NewMetrics(n)
	}
	return measure(alg, h, n, totalOps, op, m, nil)
}

func measure(alg string, h *pmem.Heap, n int, totalOps uint64, op OpFunc, m *obs.Metrics, spans *obs.SpanLog) Result {
	per := totalOps / uint64(n)
	if per == 0 {
		per = 1
	}
	h.ResetStats()
	var wg sync.WaitGroup
	start := time.Now()
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)*2654435761 + 1))
			sink := uint64(0)
			for i := uint64(0); i < per; i++ {
				if m != nil || spans != nil {
					t0 := obs.Now()
					op(tid, i, rng)
					t1 := obs.Now()
					if m != nil {
						m.RecordLatency(tid, uint64(t1-t0))
					}
					if spans != nil {
						// The whole-operation span; the protocol's phase spans
						// nest inside it on the same track.
						spans.Record(tid, obs.PhaseOp, t0, t1, 0)
					}
				} else {
					op(tid, i, rng)
				}
				w := rng.Uint64() % LocalWorkMax
				for j := uint64(0); j < w; j++ {
					sink += j
				}
				// One yield per operation: on a host with fewer cores than
				// simulated threads this forces the fine-grained interleaving
				// that dedicated cores would produce, so the coherence cost
				// model (pmem.HotWord) sees realistic ownership churn for
				// every algorithm equally.
				runtime.Gosched()
			}
			localSink(sink)
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ops := per * uint64(n)
	st := h.Stats()
	res := Result{
		Algorithm:    alg,
		Threads:      n,
		Ops:          ops,
		Elapsed:      elapsed,
		Mops:         float64(ops) / elapsed.Seconds() / 1e6,
		PwbsPerOp:    float64(st.Pwbs) / float64(ops),
		PfencesPerOp: float64(st.Pfences) / float64(ops),
		PsyncsPerOp:  float64(st.Psyncs) / float64(ops),
	}
	if m != nil {
		res.Extra = m.Extra(ops)
		res.Obs = m
	}
	return res
}

var sinkMu sync.Mutex
var globalSink uint64

func localSink(v uint64) {
	sinkMu.Lock()
	globalSink += v
	sinkMu.Unlock()
}

// Config parameterizes a figure run.
type Config struct {
	// Threads is the list of thread counts (the figure's x-axis).
	Threads []int
	// Ops is the total number of operations per point (the paper uses 1e7;
	// the default here is smaller so a full sweep stays laptop-friendly).
	Ops uint64
	// Persist configures the simulated NVMM cost model.
	Persist pmem.Config
	// Metrics enables per-point obs instrumentation: operation-latency
	// histograms plus combining statistics for structures that support it.
	// Results then carry the values in Extra and the sink in Obs.
	Metrics bool
	// OnPoint, when non-nil, is invoked after each measured point (sweeps
	// call it synchronously, in order). Tools use it to stream JSONL or
	// refresh an expvar endpoint while a long run progresses.
	OnPoint func(Result)

	// SpanCap enables per-op lifecycle span tracing: each point gets a fresh
	// obs.SpanLog with per-thread rings of SpanCap entries, installed on the
	// structure under test as part of its core.Probe. 0 disables tracing;
	// negative selects obs.DefaultSpanCap.
	SpanCap int
	// OnSpans, when non-nil (and SpanCap != 0), receives each point's span
	// log after the point completes — trace-export hook.
	OnSpans func(alg string, threads int, log *obs.SpanLog)
	// OnStart, when non-nil, is invoked before each point starts measuring,
	// with the point's live metrics sink and span log (either may be nil
	// when the corresponding instrumentation is off). The live-telemetry
	// endpoint uses it to repoint its scrape targets at the running point.
	OnStart func(alg string, threads int, m *obs.Metrics, spans *obs.SpanLog)

	// obsM carries the current point's metrics sink from runSweep into the
	// algorithm builders, obsSpans its span log; they install both as one
	// core.Probe (Config.probe).
	obsM     *obs.Metrics
	obsSpans *obs.SpanLog
}

// PrintSeries renders a figure as an aligned table: one row per thread
// count, one column per algorithm, in the given metric. Any metric name
// Result.Metric understands works, including Extra keys such as
// "lat-p99-ns" or "comb-degree-mean"; points missing the metric print 0.
func PrintSeries(w io.Writer, title, metric string, series []Series) {
	fmt.Fprintf(w, "# %s (%s)\n", title, metric)
	fmt.Fprintf(w, "%8s", "threads")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	rows := map[int][]float64{}
	var threads []int
	for si, s := range series {
		for _, p := range s.Points {
			if _, ok := rows[p.Threads]; !ok {
				rows[p.Threads] = make([]float64, len(series))
				threads = append(threads, p.Threads)
			}
			v, _ := p.Metric(metric)
			rows[p.Threads][si] = v
		}
	}
	sort.Ints(threads)
	for _, t := range threads {
		fmt.Fprintf(w, "%8d", t)
		for _, v := range rows[t] {
			fmt.Fprintf(w, " %14.3f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
