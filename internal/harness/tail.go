package harness

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"pcomb/internal/hashmap"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

// Open-loop tail-latency measurement. The closed-loop sweeps (Measure and
// every Fig*) issue the next operation as soon as the previous one returns,
// which makes throughput the only observable: latency under a closed loop is
// just 1/throughput and never shows queueing. An open-loop run instead draws
// operation arrival times from a Poisson process at a fixed offered load and
// measures each operation's RESPONSE time — completion minus scheduled
// arrival — so when the system cannot keep up, the backlog shows as the
// classic hockey-stick in p99/p999. The response time splits into queueing
// delay (scheduled arrival to actual start; generator running behind) and
// service time (start to completion), which is exactly the attribution the
// span phases provide inside the service part.

// tailPoint is one operation's timing sample in an open-loop run.
type tailPoint struct {
	arrival int64 // scheduled (Poisson) arrival, obs.Now timebase
	start   int64 // when the op actually started executing
}

// tailAlgo is one open-loop benchmark target. Pending/Drain are non-nil for
// targets with an async submission path: Pending reports tid's staged,
// not-yet-durable operation count after an op call, and Drain flushes tid's
// staged tail at the end of the run. Scalar targets leave both nil (every op
// completes when the call returns).
type tailAlgo struct {
	Name    string
	Build   func(cfg Config, n int) (*pmem.Heap, OpFunc)
	Pending func(tid int) int
	Drain   func(tid int)
}

// measureOpenLoop runs totalOps operations across n threads with Poisson
// arrivals at rateMops million ops/sec offered load (split evenly across
// threads) and reports response-time quantiles plus the queueing/service
// split. When spans is non-nil, each op additionally records a queue span
// (arrival to start) and an op span (arrival to completion) so the trace
// shows queueing and service on one timeline.
func measureOpenLoop(alg string, h *pmem.Heap, n int, totalOps uint64, rateMops float64,
	a *tailAlgo, op OpFunc, m *obs.Metrics, spans *obs.SpanLog) Result {
	per := totalOps / uint64(n)
	if per == 0 {
		per = 1
	}
	// Mean inter-arrival gap per thread (ns): the offered load is rateMops
	// across all n threads, so each thread generates at rateMops/n Mops.
	gapNs := float64(n) * 1e3 / rateMops

	resp := obs.NewShardedHist(n)
	qdelay := obs.NewShardedHist(n)
	service := obs.NewShardedHist(n)

	h.ResetStats()
	var wg sync.WaitGroup
	wallStart := time.Now()
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)*2654435761 + 1))
			staged := make([]tailPoint, 0, 64)
			record := func(p tailPoint, end int64) {
				resp.Record(tid, uint64(end-p.arrival))
				qdelay.Record(tid, uint64(p.start-p.arrival))
				service.Record(tid, uint64(end-p.start))
				if m != nil {
					m.RecordLatency(tid, uint64(end-p.arrival))
				}
				if spans != nil {
					spans.Record(tid, obs.PhaseOp, p.arrival, end, 0)
					spans.Record(tid, obs.PhaseQueue, p.arrival, p.start, 0)
				}
			}
			// The schedule is absolute: next accumulates exponential gaps from
			// the run's start, so a slow operation does NOT push later arrivals
			// out (open loop). When the generator falls behind, ops start late
			// and the lateness is charged to queueing delay.
			next := float64(obs.Now())
			for i := uint64(0); i < per; i++ {
				next += rng.ExpFloat64() * gapNs
				arrival := int64(next)
				for obs.Now() < arrival {
					runtime.Gosched()
				}
				p := tailPoint{arrival: arrival, start: obs.Now()}
				op(tid, i, rng)
				if a.Pending == nil {
					record(p, obs.Now())
				} else {
					staged = append(staged, p)
					if a.Pending(tid) == 0 {
						// The submit auto-flushed: the whole staged batch just
						// committed durably and resolved.
						end := obs.Now()
						for _, sp := range staged {
							record(sp, end)
						}
						staged = staged[:0]
					}
				}
			}
			if a.Drain != nil && len(staged) > 0 {
				a.Drain(tid)
				end := obs.Now()
				for _, sp := range staged {
					record(sp, end)
				}
			}
		}(tid)
	}
	wg.Wait()
	elapsed := time.Since(wallStart)
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
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	rh, qh, sh := resp.Snapshot(), qdelay.Snapshot(), service.Snapshot()
	res.Extra["offered-mops"] = rateMops
	res.Extra["resp-mean-ns"] = rh.Mean()
	res.Extra["resp-p50-ns"] = rh.Quantile(0.50)
	res.Extra["resp-p99-ns"] = rh.Quantile(0.99)
	res.Extra["resp-p999-ns"] = rh.Quantile(0.999)
	res.Extra["resp-max-ns"] = float64(rh.Max())
	res.Extra["qdelay-mean-ns"] = qh.Mean()
	res.Extra["qdelay-p99-ns"] = qh.Quantile(0.99)
	res.Extra["service-mean-ns"] = sh.Mean()
	res.Extra["service-p99-ns"] = sh.Quantile(0.99)
	return res
}

// tailMapAlgos builds the open-loop target set: the sharded hash map under
// both protocols, scalar and (when vcap >= 2) through the async Submit/Flush
// batch path — the same single-shard setup as FigBatch so the batch-vs-scalar
// response-time tradeoff is isolated from shard parallelism.
func tailMapAlgos(vcap int) []*tailAlgo {
	mk := func(name string, kind hashmap.Kind, vc int) *tailAlgo {
		ta := &tailAlgo{Name: name}
		ta.Build = func(cfg Config, n int) (*pmem.Heap, OpFunc) {
			h := newHeap(cfg)
			m := hashmap.NewWith(h, "m", n, kind, hashmap.Options{
				Shards: 1, Capacity: 512, VecCap: vc,
			})
			m.SetProbe(cfg.probe())
			if vc < 2 {
				return h, func(tid int, i uint64, rng *rand.Rand) {
					key := uint64(rng.Intn(256)) + 1
					if i%2 == 0 {
						m.Put(tid, key, i+1)
					} else {
						m.Get(tid, key)
					}
				}
			}
			ta.Pending = m.Pending
			ta.Drain = m.Flush
			return h, func(tid int, i uint64, rng *rand.Rand) {
				key := uint64(rng.Intn(256)) + 1
				if i%2 == 0 {
					m.SubmitPut(tid, key, i+1)
				} else {
					m.SubmitGet(tid, key)
				}
			}
		}
		return ta
	}
	algos := []*tailAlgo{
		mk("PBmap", hashmap.Blocking, 1),
		mk("PWFmap", hashmap.WaitFree, 1),
	}
	if vcap >= 2 {
		algos = append(algos,
			mk(fmt.Sprintf("PBmap-b%d", vcap), hashmap.Blocking, vcap),
			mk(fmt.Sprintf("PWFmap-b%d", vcap), hashmap.WaitFree, vcap),
		)
	}
	return algos
}

// FigTail is the open-loop tail-latency figure: response-time quantiles vs
// offered load (ratesMops, million ops/sec) for {PBmap, PWFmap} × {scalar,
// batch-vcap} at the LAST thread count of cfg.Threads. Each point's Extra
// carries "offered-mops", "resp-p50/p99/p999-ns", and the queueing-delay vs
// service-time split; render with PrintTailSeries (the x-axis is offered
// load, not threads). SpanCap/OnSpans/OnStart/OnPoint work as in runSweep.
func FigTail(cfg Config, ratesMops []float64, vcap int) []Series {
	n := 1
	if len(cfg.Threads) > 0 {
		n = cfg.Threads[len(cfg.Threads)-1]
	}
	algos := tailMapAlgos(vcap)
	out := make([]Series, len(algos))
	for ai, a := range algos {
		out[ai].Name = a.Name
		for _, rate := range ratesMops {
			pcfg := cfg
			var m *obs.Metrics
			if cfg.Metrics {
				m = obs.NewMetrics(n)
				pcfg.obsM = m
			}
			var spans *obs.SpanLog
			if cfg.SpanCap != 0 {
				spans = obs.NewSpanLog(n, cfg.SpanCap)
				pcfg.obsSpans = spans
			}
			h, op := a.Build(pcfg, n)
			if cfg.OnStart != nil {
				cfg.OnStart(a.Name, n, m, spans)
			}
			res := measureOpenLoop(a.Name, h, n, cfg.Ops, rate, a, op, m, spans)
			out[ai].Points = append(out[ai].Points, res)
			if cfg.OnPoint != nil {
				cfg.OnPoint(res)
			}
			if cfg.OnSpans != nil && spans != nil {
				cfg.OnSpans(fmt.Sprintf("%s@%gM", a.Name, rate), n, spans)
			}
		}
	}
	return out
}

// PrintTailSeries renders an open-loop figure as an aligned table: one row
// per offered load, one column per algorithm, in the given metric (any key
// Result.Metric understands; the tail keys are "resp-p50-ns", "resp-p99-ns",
// "resp-p999-ns", "qdelay-mean-ns", "service-mean-ns", "mops").
func PrintTailSeries(w io.Writer, title, metric string, series []Series) {
	fmt.Fprintf(w, "# %s (%s)\n", title, metric)
	fmt.Fprintf(w, "%14s", "offered-mops")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)
	if len(series) == 0 {
		return
	}
	rows := map[float64][]float64{}
	var rates []float64
	for si, s := range series {
		for _, p := range s.Points {
			rate := p.Extra["offered-mops"]
			if _, ok := rows[rate]; !ok {
				rows[rate] = make([]float64, len(series))
				rates = append(rates, rate)
			}
			v, _ := p.Metric(metric)
			rows[rate][si] = v
		}
	}
	sort.Float64s(rates)
	for _, r := range rates {
		fmt.Fprintf(w, "%14.3f", r)
		for _, v := range rows[r] {
			fmt.Fprintf(w, " %14.1f", v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}
