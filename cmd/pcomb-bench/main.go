// pcomb-bench regenerates the paper's evaluation: every figure of Section 6
// and the Table 1 counters, as aligned text tables (one row per thread
// count, one column per algorithm).
//
// Usage:
//
//	pcomb-bench -figure 1a                 # one figure
//	pcomb-bench -figure all -ops 1000000   # the whole evaluation
//	pcomb-bench -figure t1 -threads 128    # Table 1
//	pcomb-bench -figure tail -threads 8    # open-loop tail latency
//	pcomb-bench -figure ba -serve :8090    # live telemetry while it runs
//
// Flags control the workload size, the thread-count sweep, and the
// simulated persistence costs. Absolute Mops/s depend on the host; the
// shapes (who wins, by what factor, where pwb counts sit) are the
// reproduction target.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -serve exposes /debug/pprof
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"

	"pcomb/internal/harness"
	"pcomb/internal/obs"
	"pcomb/internal/pmem"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "figure to run: 1a 1b 1c 2a 2b 2c 3a 3b 4 t1 ext sp bk ba ep sh all, tail (open-loop), or srv (RESP server)")
		format   = flag.String("format", "table", "output format: table, csv, or chart")
		ops      = flag.Uint64("ops", 200_000, "total operations per measured point")
		threads  = flag.String("threads", "1,2,4,8,16,24,32,48,64,96", "comma-separated thread counts")
		batches  = flag.String("batch", "1,8,32", "comma-separated batch sizes for -figure ba (1 = scalar baseline)")
		epochUs  = flag.String("epoch-us", "200,1000,2000", "comma-separated epoch close cadences (µs) for -figure ep")
		shardsIn = flag.String("shards", "1,2,4,8", "comma-separated fabric shard counts for -figure sh")
		skews    = flag.String("skew", "0,0.99", "comma-separated zipfian exponents for -figure sh (0 = uniform)")
		t1n      = flag.Int("t1-threads", 128, "thread count for Table 1")
		pwbNs    = flag.Int("pwb-ns", pmem.DefaultPwbNs, "simulated pwb cost (ns)")
		pfenceNs = flag.Int("pfence-ns", pmem.DefaultPfenceNs, "simulated pfence cost (ns)")
		psyncNs  = flag.Int("psync-ns", pmem.DefaultPsyncNs, "simulated psync cost (ns)")
		noCost   = flag.Bool("no-cost", false, "disable simulated persistence costs (counters only)")
		metrics  = flag.Bool("metrics", false, "collect per-op latency histograms and combining stats")
		jsonOut  = flag.String("json", "", "append one JSONL record per measured point to this file ('-' for stdout)")
		expvarAt = flag.String("expvar", "", "serve /debug/vars on this address (e.g. :8090) with the run's records")
		serveAt  = flag.String("serve", "", "serve live telemetry on this address: Prometheus text on /metrics, plus /debug/vars and /debug/pprof (implies -metrics and span tracing)")
		rates    = flag.String("rates", "0.1,0.2,0.4,0.8,1.6,3.2", "comma-separated offered loads (Mops/s) for -figure tail")
		tailVcap = flag.Int("tail-vcap", 8, "async submit batch capacity for -figure tail's batch variants (<2 = scalar only)")
		conns    = flag.Int("conns", 8, "concurrent TCP connections for -figure srv")
		srvFlush = flag.Int("srv-flush", 16, "batched server window size for -figure srv (the naive baseline is always 1)")
		srvRates = flag.String("srv-rates", "0.02,0.05,0.1,0.2", "comma-separated offered loads (Mops/s) for -figure srv")
		spanCap  = flag.Int("span-cap", 0, "per-thread span-ring capacity for lifecycle tracing (0 = off, <0 = default)")
		traceOut = flag.String("trace", "", "write per-op lifecycle spans as a Chrome/Perfetto trace to this file (enables span tracing)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()

	cfg := harness.Config{
		Ops:     *ops,
		Metrics: *metrics,
		SpanCap: *spanCap,
		Persist: pmem.Config{
			Mode:     pmem.ModeCount,
			PwbNs:    *pwbNs,
			PfenceNs: *pfenceNs,
			PsyncNs:  *psyncNs,
			NoCost:   *noCost,
		},
	}
	for _, part := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad thread count %q\n", part)
			os.Exit(2)
		}
		cfg.Threads = append(cfg.Threads, n)
	}
	var batchSizes []int
	for _, part := range strings.Split(*batches, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || b <= 0 {
			fmt.Fprintf(os.Stderr, "bad batch size %q\n", part)
			os.Exit(2)
		}
		batchSizes = append(batchSizes, b)
	}
	var epochList []int
	for _, part := range strings.Split(*epochUs, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || d <= 0 {
			fmt.Fprintf(os.Stderr, "bad epoch cadence %q\n", part)
			os.Exit(2)
		}
		epochList = append(epochList, d)
	}
	var shardList []int
	for _, part := range strings.Split(*shardsIn, ",") {
		s, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || s <= 0 {
			fmt.Fprintf(os.Stderr, "bad shard count %q\n", part)
			os.Exit(2)
		}
		shardList = append(shardList, s)
	}
	var skewList []float64
	for _, part := range strings.Split(*skews, ",") {
		s, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || s < 0 {
			fmt.Fprintf(os.Stderr, "bad skew %q\n", part)
			os.Exit(2)
		}
		skewList = append(skewList, s)
	}
	var rateList []float64
	for _, part := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			fmt.Fprintf(os.Stderr, "bad offered load %q\n", part)
			os.Exit(2)
		}
		rateList = append(rateList, r)
	}
	var srvRateList []float64
	for _, part := range strings.Split(*srvRates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || r <= 0 {
			fmt.Fprintf(os.Stderr, "bad offered load %q\n", part)
			os.Exit(2)
		}
		srvRateList = append(srvRateList, r)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}

	// Span tracing turns on when any consumer needs it: an explicit -span-cap,
	// a -trace export, or the live telemetry endpoint.
	if (*traceOut != "" || *serveAt != "") && cfg.SpanCap == 0 {
		cfg.SpanCap = -1 // obs.DefaultSpanCap
	}
	if *serveAt != "" {
		cfg.Metrics = true
	}

	// Streaming export: every measured point becomes one JSONL record the
	// moment it completes, and the accumulated records back the expvar
	// endpoint for long-running sweeps.
	var (
		jsonW   *os.File
		recMu   sync.Mutex
		records []obs.RunRecord
		curFig  string
	)
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
	if jsonW != nil {
		// First line of every export: the knobs the numbers depend on, so a
		// committed artifact is self-describing. Consumers keyed on
		// (figure, algorithm, threads) skip it.
		meta := struct {
			Meta     string `json:"meta"`
			Ops      uint64 `json:"ops"`
			Threads  string `json:"thread_list"`
			PwbNs    int    `json:"pwb_ns"`
			PfenceNs int    `json:"pfence_ns"`
			PsyncNs  int    `json:"psync_ns"`
			NoCost   bool   `json:"no_cost,omitempty"`
			EpochUs  string `json:"epoch_us"`
			Cores    int    `json:"host_cores"`
			Go       string `json:"go"`
		}{"pcomb-bench", *ops, *threads, *pwbNs, *pfenceNs, *psyncNs,
			*noCost, *epochUs, runtime.NumCPU(), runtime.Version()}
		if err := json.NewEncoder(jsonW).Encode(meta); err != nil {
			fmt.Fprintf(os.Stderr, "json output: %v\n", err)
			os.Exit(1)
		}
	}
	var tel *obs.Telemetry
	if *serveAt != "" {
		tel = obs.NewTelemetry()
		cfg.OnStart = tel.StartPoint
	}
	if jsonW != nil || *expvarAt != "" || tel != nil {
		cfg.OnPoint = func(r harness.Result) {
			rec := r.Record(curFig)
			recMu.Lock()
			records = append(records, rec)
			recMu.Unlock()
			if tel != nil {
				tel.FinishPoint(rec)
			}
			if jsonW != nil {
				if err := obs.AppendJSONL(jsonW, rec); err != nil {
					fmt.Fprintf(os.Stderr, "json output: %v\n", err)
					os.Exit(1)
				}
			}
		}
	}
	if *expvarAt != "" || tel != nil {
		obs.Publish("pcomb-bench", func() any {
			recMu.Lock()
			defer recMu.Unlock()
			return append([]obs.RunRecord(nil), records...)
		})
	}
	if tel != nil {
		obs.Publish("pcomb-telemetry", tel.Expvar)
		http.Handle("/metrics", tel)
		ln, err := obs.Serve(*serveAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics (plus /debug/vars, /debug/pprof)\n", ln.Addr())
	} else if *expvarAt != "" {
		ln, err := obs.Serve(*expvarAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expvar: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "expvar: serving http://%s/debug/vars\n", ln.Addr())
	}

	// Trace export: each instrumented point contributes one named process to
	// the Chrome trace, so Perfetto shows per-thread tracks of nested phase
	// spans side by side across points.
	var traces []obs.NamedSpans
	if *traceOut != "" {
		cfg.OnSpans = func(alg string, threads int, log *obs.SpanLog) {
			traces = append(traces, obs.NamedSpans{
				Name: fmt.Sprintf("%s/t%d", alg, threads),
				Log:  log,
			})
		}
	}

	emit := func(title, metric string, series []harness.Series) {
		switch *format {
		case "csv":
			harness.PrintSeriesCSV(os.Stdout, title, series)
		case "chart":
			harness.PrintSeriesChart(os.Stdout, title, metric, series)
		default:
			harness.PrintSeries(os.Stdout, title, metric, series)
			if *metrics {
				// The mechanism-level view: tail latency and how much
				// combining actually amortized the persistence cost.
				harness.PrintSeries(os.Stdout, title, "lat-p99-ns", series)
				harness.PrintSeries(os.Stdout, title, "comb-degree-mean", series)
			}
		}
	}

	runs := map[string]func(){
		"1a": func() {
			emit("Figure 1a: persistent AtomicFloat throughput", "Mops/s", harness.Fig1a(cfg))
		},
		"1b": func() {
			emit("Figure 1b: persistent AtomicFloat", "pwbs/op", harness.Fig1b(cfg))
		},
		"1c": func() {
			emit("Figure 1c: AtomicFloat throughput, psync=NOP ablation", "Mops/s", harness.Fig1c(cfg))
		},
		"2a": func() {
			emit("Figure 2a: persistent queue throughput", "Mops/s", harness.Fig2a(cfg))
		},
		"2b": func() {
			emit("Figure 2b: persistent queues", "pwbs/op", harness.Fig2b(cfg))
		},
		"2c": func() {
			emit("Figure 2c: queue throughput with pwb=NOP (sync cost only)", "Mops/s", harness.Fig2c(cfg))
		},
		"3a": func() {
			emit("Figure 3a: persistent stack throughput", "Mops/s", harness.Fig3a(cfg))
		},
		"3b": func() {
			emit("Figure 3b: PBheap throughput by heap bound", "Mops/s", harness.Fig3b(cfg))
		},
		"4": func() {
			emit("Figure 4: volatile AtomicFloat throughput", "Mops/s", harness.Fig4(cfg))
		},
		"t1": func() {
			harness.PrintTable1(os.Stdout, harness.Table1(*t1n, cfg.Ops))
		},
		"ext": func() {
			emit("Extensions ext: sharded map, sparse heap, durable-only", "Mops/s", harness.FigExt(cfg))
		},
		"sp": func() {
			series := harness.FigBench(cfg)
			emit("Extensions sp: dense vs sparse (dirty-delta) persistence", "Mops/s", series)
			if *format == "table" {
				harness.PrintSeries(os.Stdout, "Extensions sp: dense vs sparse", "pwbs/op", series)
				if *metrics {
					harness.PrintSeries(os.Stdout, "Extensions sp: dense vs sparse", "copy-words/op", series)
				}
			}
		},
		"bk": func() {
			series := harness.FigBackoff(cfg)
			emit("Extensions bk: adaptive announce backoff on/off", "Mops/s", series)
			if *format == "table" && *metrics {
				harness.PrintSeries(os.Stdout, "Extensions bk: adaptive announce backoff", "comb-degree-mean", series)
			}
		},
		"ba": func() {
			series := harness.FigBatch(cfg, batchSizes)
			emit("Extensions ba: vectorized announcements by batch size", "Mops/s", series)
			if *format == "table" {
				harness.PrintSeries(os.Stdout, "Extensions ba: vectorized announcements", "pwbs/op", series)
				if *metrics {
					harness.PrintSeries(os.Stdout, "Extensions ba: vectorized announcements", "comb-rounds/op", series)
					harness.PrintSeries(os.Stdout, "Extensions ba: vectorized announcements", "batch-size-mean", series)
				}
			}
		},
		"ep": func() {
			series := harness.FigEpoch(cfg, epochList)
			emit("Extensions ep: epoch-mode group commit vs strict rounds", "Mops/s", series)
			if *format == "table" {
				// The price of the loss window: how long a Wait for
				// durability would have blocked, per close cadence.
				harness.PrintSeries(os.Stdout, "Extensions ep: resolve-at-close latency", "resolve-p99-ns", series)
				harness.PrintSeries(os.Stdout, "Extensions ep: vs strict persistence work", "pwbs/op", series)
			}
		},
		"sh": func() {
			series := harness.FigShard(cfg, shardList, skewList)
			emit("Extensions sh: sharded fabric, hierarchical vs flat routing", "Mops/s", series)
			if *format == "table" && *metrics {
				harness.PrintSeries(os.Stdout, "Extensions sh: combining degree", "comb-degree-mean", series)
			}
		},
		"tail": func() {
			// The open-loop figure needs the latency histograms for the
			// response/queueing/service split regardless of -metrics.
			tcfg := cfg
			tcfg.Metrics = true
			series := harness.FigTail(tcfg, rateList, *tailVcap)
			title := "Open-loop tail latency: response time vs offered load"
			for _, metric := range []string{
				"resp-p50-ns", "resp-p99-ns", "resp-p999-ns",
				"qdelay-mean-ns", "service-mean-ns", "mops",
			} {
				harness.PrintTailSeries(os.Stdout, title, metric, series)
			}
		},
		"srv": func() {
			// The RESP server over real TCP: batched window commit vs naive
			// flush-per-command, open loop. Opt-in like tail (not part of
			// "all": it binds a port and runs wall-clock seconds per point).
			series, err := harness.FigSrv(cfg, srvRateList, *conns, *srvFlush)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figure srv: %v\n", err)
				os.Exit(1)
			}
			title := fmt.Sprintf("Server srv: batched (b%d) vs naive flush-per-command, %d connections", *srvFlush, *conns)
			for _, metric := range []string{
				"achieved-kops", "resp-p50-ns", "resp-p99-ns",
				"qdelay-p99-ns", "service-p99-ns", "srv-batch-mean", "pwbs/op",
			} {
				harness.PrintTailSeries(os.Stdout, title, metric, series)
			}
		},
	}

	order := []string{"1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "4", "t1", "ext", "sp", "bk", "ba", "ep", "sh"}
	do := func(f string) {
		curFig = f // tags the JSONL records emitted while this figure runs
		runs[f]()
	}
	if *figure == "all" {
		for _, f := range order {
			do(f)
		}
	} else if _, ok := runs[*figure]; ok {
		do(*figure)
	} else {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want one of %v, tail, srv, or all)\n", *figure, order)
		os.Exit(2)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := obs.WriteSpanTrace(f, traces); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: wrote %d span logs to %s (open in ui.perfetto.dev)\n", len(traces), *traceOut)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}
