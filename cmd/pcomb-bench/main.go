// pcomb-bench regenerates the paper's evaluation: every figure of Section 6
// and the Table 1 counters, as aligned text tables (one row per thread
// count, one column per algorithm).
//
// Usage:
//
//	pcomb-bench -figure 1a                 # one figure
//	pcomb-bench -figure all -ops 1000000   # the whole evaluation
//	pcomb-bench -figure t1 -t1-threads 128 # Table 1
//	pcomb-bench -figure 2a -serve :8090    # live telemetry while it runs
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
		figure   = flag.String("figure", "all", "figure to run: 1a 1b 1c 2a 2b 2c 3a 3b 4 t1, or all")
		format   = flag.String("format", "table", "output format: table, csv, or chart")
		ops      = flag.Uint64("ops", 200_000, "total operations per measured point")
		threads  = flag.String("threads", "1,2,4,8,16,24,32,48,64,96", "comma-separated thread counts")
		t1n      = flag.Int("t1-threads", 128, "thread count for Table 1")
		pwbNs    = flag.Int("pwb-ns", pmem.DefaultPwbNs, "simulated pwb cost (ns)")
		pfenceNs = flag.Int("pfence-ns", pmem.DefaultPfenceNs, "simulated pfence cost (ns)")
		psyncNs  = flag.Int("psync-ns", pmem.DefaultPsyncNs, "simulated psync cost (ns)")
		noCost   = flag.Bool("no-cost", false, "disable simulated persistence costs (counters only)")
		metrics  = flag.Bool("metrics", false, "collect per-op latency histograms and combining stats")
		jsonOut  = flag.String("json", "", "append one JSONL record per measured point to this file ('-' for stdout)")
		serveAt  = flag.String("serve", "", "serve live telemetry on this address: Prometheus text on /metrics, plus /debug/vars and /debug/pprof (implies -metrics and span tracing)")
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
	// moment it completes, and the accumulated records back -serve's
	// /debug/vars for long-running sweeps.
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
			Cores    int    `json:"host_cores"`
			Go       string `json:"go"`
		}{"pcomb-bench", *ops, *threads, *pwbNs, *pfenceNs, *psyncNs,
			*noCost, runtime.NumCPU(), runtime.Version()}
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
	if jsonW != nil || tel != nil {
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
	if tel != nil {
		obs.Publish("pcomb-bench", func() any {
			recMu.Lock()
			defer recMu.Unlock()
			return append([]obs.RunRecord(nil), records...)
		})
		obs.Publish("pcomb-telemetry", tel.Expvar)
		http.Handle("/metrics", tel)
		ln, err := obs.Serve(*serveAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics (plus /debug/vars, /debug/pprof)\n", ln.Addr())
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
	}

	order := []string{"1a", "1b", "1c", "2a", "2b", "2c", "3a", "3b", "4", "t1"}
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
		fmt.Fprintf(os.Stderr, "unknown figure %q (want one of %v, or all)\n", *figure, order)
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
