// Command bench is the repository's benchmark: four workloads measured from
// outside the stack, end to end and layer by layer. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// corrupt names the one output the checker self-test damages ("dequeue",
// "balance" or "reply"); empty outside tests.
var corrupt string

// childEnv marks a process as one trial of a run. Every trial is a fresh
// process because the stack calibrates its persistence-cost spin loop once
// per process, over a few milliseconds: trials in one process would share one
// draw of that calibration, and peak RSS would carry over between them.
const childEnv = "PCOMB_BENCH_TRIAL"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	trials   int
	repeat   int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "queue_pairs, fabric_bank, srv_pipelined or srv_interactive (default: all four)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds one run measures, shared among its trials")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced trials, end-to-end metrics; 1: traced trial and probes, per-layer metrics; -1: both")
	fs.IntVar(&o.trials, "trials", 20, "untraced trials per run, each a fresh process (at least 5 for a reportable median)")
	fs.IntVar(&o.repeat, "repeat", 1, "run the untraced set this many times and compare the medians against the bounds")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := findWorkload(o.workload); !ok && o.workload != "" {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 || o.trials < 1 || o.repeat < 1 || o.trace < -1 || o.trace > 1 {
		return o, fmt.Errorf("seconds, trials and repeat must be positive, trace -1, 0 or 1")
	}
	return o, nil
}

// threads is T: the client goroutines or connections of every workload.
func threads() int { return min(runtime.NumCPU(), 4) }

// trialConfig splits a run's seconds among its phases. An untraced run is
// o.trials trials of one measured phase each; a traced run is one trial with
// an untraced and a traced phase and the probes.
func trialConfig(o options, workload string, traced bool) trialCfg {
	cfg := trialCfg{workload: workload, seed: o.seed, threads: threads(), traced: traced, outDir: "out"}
	if traced {
		cfg.measure = time.Duration(o.seconds / 4 * float64(time.Second))
		cfg.probe = time.Duration(o.seconds / 200 * float64(time.Second))
	} else {
		cfg.measure = time.Duration(o.seconds / float64(o.trials) * float64(time.Second))
	}
	cfg.warm = min(time.Second, cfg.measure/4)
	return cfg
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	if os.Getenv(childEnv) != "" {
		rec, err := runTrial(trialConfig(o, o.workload, o.trace == 1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return emitJSON(stdout, stderr, rec)
	}

	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok := true
	sets := make([]map[string]*passResult, o.repeat)
	for r := range sets {
		sets[r] = map[string]*passResult{}
		for _, name := range names {
			if o.trace != 1 {
				res, err := untracedPass(o, name, stdout)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				sets[r][name] = res
				ok = ok && res.Failed == 0
			}
			if o.trace != 0 && r == 0 {
				res, err := tracedPass(o, name, stdout)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
				ok = ok && res.Failed == 0
			}
		}
	}
	if o.repeat > 1 && o.trace != 1 {
		ok = compareSets(stdout, names, sets) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

func emitJSON(stdout, stderr io.Writer, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// spawnTrial runs one trial as a child process of this binary and returns its
// record. Tests replace it to run trials in process.
var spawnTrial = func(o options, workload string, traced bool) (*trialRec, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := 0
	if traced {
		trace = 1
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-trials", fmt.Sprint(o.trials))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("trial of %s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	rec := new(trialRec)
	if err := json.Unmarshal(lines[len(lines)-1], rec); err != nil {
		return nil, fmt.Errorf("trial of %s printed no record: %w", workload, err)
	}
	return rec, nil
}

type metricResult struct {
	Value  float64   `json:"value"` // the median over trials
	Unit   string    `json:"unit"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Trials []float64 `json:"trials"`
}

// passResult is the record printed for one pass of one workload.
type passResult struct {
	Workload  string                  `json:"workload"`
	Pass      string                  `json:"pass"`
	Nproc     int                     `json:"nproc"`
	T         int                     `json:"T"`
	Go        string                  `json:"go"`
	Kernel    string                  `json:"kernel"`
	Seed      int64                   `json:"seed"`
	CostModel string                  `json:"cost_model"`
	Sync      string                  `json:"sync"`
	Trials    int                     `json:"trials"`
	TrialSecs float64                 `json:"trial_seconds"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	FailShare float64                 `json:"fail_share"`
	Samples   []int                   `json:"latency_samples"`
	Dropped   int                     `json:"dropped_samples"`
	Metrics   map[string]metricResult `json:"metrics"`
	Notes     []string                `json:"notes,omitempty"`
}

func kernel() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

func newPassResult(o options, workload, pass string, cfg trialCfg, trials int) *passResult {
	return &passResult{
		Workload: workload, Pass: pass, Nproc: runtime.NumCPU(), T: cfg.threads,
		Go: runtime.Version(), Kernel: kernel(), Seed: o.seed,
		CostModel: costModelNote, Sync: syncModeNote,
		Trials: trials, TrialSecs: cfg.measure.Seconds(), Metrics: map[string]metricResult{},
	}
}

func (p *passResult) add(rec *trialRec) {
	p.Attempted += rec.Attempted
	p.Failed += rec.Failed
	p.Samples = append(p.Samples, rec.Samples)
	p.Dropped += rec.Dropped
	p.Notes = append(p.Notes, rec.Notes...)
	if p.Attempted > 0 {
		p.FailShare = float64(p.Failed) / float64(p.Attempted)
	}
}

// print writes the pass as a table, its full record, and last the one-line
// result the driver reads, which holds the metrics of defs and not of info.
func (p *passResult) print(w io.Writer, defs, info []metricDef) {
	fmt.Fprintf(w, "== %s %s: %d trial(s) x %.2f s measured, seed %d, T=%d, nproc=%d, %s, linux %s, cost_model: %s, sync: %s\n",
		p.Workload, p.Pass, p.Trials, p.TrialSecs, p.Seed, p.T, p.Nproc, p.Go, p.Kernel, p.CostModel, p.Sync)
	fmt.Fprintf(w, "%-28s %14s %-6s %14s %14s\n", "metric", "median", "unit", "q1", "q3")
	line := map[string]any{}
	for _, d := range defs {
		m := p.Metrics[d.name]
		fmt.Fprintf(w, "%-28s %14.4f %-6s %14.4f %14.4f\n", d.name, m.Value, m.Unit, m.Q1, m.Q3)
		line[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	for _, d := range info {
		m := p.Metrics[d.name]
		fmt.Fprintf(w, "%-28s %14.4f %-6s %14.4f %14.4f (no bound)\n", d.name, m.Value, m.Unit, m.Q1, m.Q3)
	}
	fmt.Fprintf(w, "%-28s %14g %-6s (%d failed of %d attempted)\n", "fail_share", p.FailShare, "ratio", p.Failed, p.Attempted)
	fmt.Fprintf(w, "latency samples per trial: %v (%d dropped)\n", p.Samples, p.Dropped)
	for _, n := range p.Notes {
		fmt.Fprintln(w, n)
	}
	rec, _ := json.Marshal(p) // plain numbers and strings: cannot fail
	fmt.Fprintf(w, "record %s\n", rec)
	last, _ := json.Marshal(map[string]any{
		"correct": p.Failed == 0, "attempted": p.Attempted, "failed": p.Failed, "metrics": line,
	})
	fmt.Fprintf(w, "%s\n", last)
}

// untracedPass runs o.trials trials and reports each end-to-end metric as
// the median over them, with the quartiles as its spread.
func untracedPass(o options, workload string, stdout io.Writer) (*passResult, error) {
	res := newPassResult(o, workload, "untraced", trialConfig(o, workload, false), o.trials)
	defs := slices.Concat(e2eMetrics, infoMetrics)
	values := map[string][]float64{}
	for i := 0; i < o.trials; i++ {
		rec, err := spawnTrial(o, workload, false)
		if err != nil {
			return nil, err
		}
		res.add(rec)
		for _, d := range defs {
			values[d.name] = append(values[d.name], rec.E2E[d.name])
		}
	}
	for _, d := range defs {
		q1, q3 := quartiles(values[d.name])
		res.Metrics[d.name] = metricResult{Value: median(values[d.name]), Unit: d.unit, Q1: q1, Q3: q3, Trials: values[d.name]}
	}
	res.print(stdout, e2eMetrics, infoMetrics)
	return res, nil
}

// tracedPass runs one trial that measures untraced, then traced, then runs
// the probes, all in one process, and reports the per-layer metrics.
func tracedPass(o options, workload string, stdout io.Writer) (*passResult, error) {
	res := newPassResult(o, workload, "traced", trialConfig(o, workload, true), 1)
	rec, err := spawnTrial(o, workload, true)
	if err != nil {
		return nil, err
	}
	res.add(rec)
	for _, d := range layerMetrics {
		v := rec.Layer[d.name]
		res.Metrics[d.name] = metricResult{Value: v, Unit: d.unit, Q1: v, Q3: v, Trials: []float64{v}}
	}
	res.print(stdout, layerMetrics, nil)
	return res, nil
}

// compareSets prints, per workload and end-to-end metric, every set's median,
// how much worse the last set is than the first, and whether that is within
// the metric's bound.
func compareSets(w io.Writer, names []string, sets []map[string]*passResult) bool {
	ok := true
	fmt.Fprintf(w, "== repeatability: %d sets on one build; worse_by is the last set against the first\n", len(sets))
	for _, name := range names {
		for _, d := range e2eMetrics {
			var meds []string
			for _, s := range sets {
				meds = append(meds, fmt.Sprintf("%.4f", s[name].Metrics[d.name].Value))
			}
			first, last := sets[0][name].Metrics[d.name].Value, sets[len(sets)-1][name].Metrics[d.name].Value
			worse := (last - first) / first
			if d.higher {
				worse = -worse
			}
			verdict := "pass"
			if worse > d.bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-16s %-14s %-5s medians %s worse_by %+.4f bound %.2f %s\n",
				name, d.name, d.unit, strings.Join(meds, " "), worse, d.bound, verdict)
		}
	}
	return ok
}
