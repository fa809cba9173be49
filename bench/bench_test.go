package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// A trial is this binary run again with childEnv set; for the test binary
// that is TestMain.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// inProcess makes trials run inside the test, which is faster and lets the
// race detector see them.
func inProcess(t *testing.T) {
	saved := spawnTrial
	spawnTrial = func(o options, workload string, traced bool) (*trialRec, error) {
		return runTrial(trialConfig(o, workload, traced))
	}
	t.Cleanup(func() { spawnTrial = saved })
}

type resultLine struct {
	Correct   *bool   `json:"correct"`
	Attempted *uint64 `json:"attempted"`
	Failed    *uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runBench runs the command and returns its exit code, its output and the
// decoded last line.
func runBench(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	if errOut.Len() > 0 {
		t.Logf("stderr: %s", errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line %q is not the result object: %v", lines[len(lines)-1], err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || last.Metrics == nil {
		t.Fatalf("last line %q lacks one of correct, attempted, failed, metrics", lines[len(lines)-1])
	}
	return code, out.String(), last
}

// checkPrinted asserts that the table names every metric of defs exactly
// once with its unit, and that the result line holds exactly those metrics.
func checkPrinted(t *testing.T, out string, last resultLine, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		n := 0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == d.name {
				n++
				if f[2] != d.unit {
					t.Errorf("%s printed with unit %q, want %q", d.name, f[2], d.unit)
				}
			}
		}
		if n != 1 {
			t.Errorf("%s printed %d times, want once", d.name, n)
		}
		if m, ok := last.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("result line has %s = %+v, want a value in %s", d.name, m, d.unit)
		}
	}
	if len(last.Metrics) != len(defs) {
		t.Errorf("result line has %d metrics, want %d", len(last.Metrics), len(defs))
	}
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	inProcess(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, out, last := runBench(t, "-workload", w.name, "-seconds", "0.2", "-trials", "1", "-trace", "0")
			if code != 0 || !*last.Correct || *last.Failed != 0 || *last.Attempted == 0 {
				t.Fatalf("untraced: exit %d, result %s", code, out)
			}
			checkPrinted(t, out, last, e2eMetrics)
			for _, d := range infoMetrics {
				if n := strings.Count(out, "\n"+d.name+" "); n != 1 {
					t.Errorf("%s printed %d times, want once", d.name, n)
				}
			}
			for name, m := range last.Metrics {
				if *m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above 0", name, *m.Value)
				}
			}

			code, out, last = runBench(t, "-workload", w.name, "-seconds", "0.25", "-trace", "1")
			if code != 0 || !*last.Correct {
				t.Fatalf("traced: exit %d, output %s", code, out)
			}
			checkPrinted(t, out, last, layerMetrics)
			if !strings.Contains(out, ".spans.jsonl") {
				t.Errorf("traced pass names no span file:\n%s", out)
			}
			if srv := strings.HasPrefix(w.name, "srv_"); srv != strings.Contains(out, "reconcile:") {
				t.Errorf("reconciliation line present = %v, want %v", !srv, srv)
			}
			window := *last.Metrics["server.window_ops_mean"].Value
			switch w.name {
			case "srv_pipelined":
				if window < 15.9 || window > 16 {
					t.Errorf("window_ops_mean = %v, want 16", window)
				}
			case "srv_interactive":
				if window != 1 {
					t.Errorf("window_ops_mean = %v, want 1", window)
				}
			}
		})
	}
}

// Each checker must count the one output the test damages, and the command
// must then exit non-zero.
func TestCheckersCatchCorruption(t *testing.T) {
	inProcess(t)
	t.Cleanup(func() { corrupt = "" })
	for _, c := range []struct{ workload, corrupt string }{
		{"queue_pairs", "dequeue"},
		{"fabric_bank", "balance"},
		{"srv_pipelined", "reply"},
		{"srv_interactive", "reply"},
	} {
		corrupt = c.corrupt
		code, out, last := runBench(t, "-workload", c.workload, "-seconds", "0.1", "-trials", "1", "-trace", "0")
		if code == 0 || *last.Correct || *last.Failed == 0 {
			t.Errorf("%s with a corrupted %s: exit %d, result %s", c.workload, c.corrupt, code, out)
		}
	}
}

func TestTrialsRunAsChildProcesses(t *testing.T) {
	code, out, last := runBench(t, "-workload", "queue_pairs", "-seconds", "0.2", "-trials", "2", "-trace", "0")
	if code != 0 || !*last.Correct {
		t.Fatalf("exit %d, output %s", code, out)
	}
	if !strings.Contains(out, "2 trial(s)") {
		t.Errorf("header does not report 2 trials:\n%s", out)
	}
}

func TestRepeatComparesSets(t *testing.T) {
	inProcess(t)
	var out, errOut bytes.Buffer
	run([]string{"-workload", "fabric_bank", "-seconds", "0.1", "-trials", "1", "-trace", "0", "-repeat", "2"}, &out, &errOut)
	for _, d := range e2eMetrics {
		if !strings.Contains(out.String(), "fabric_bank      "+d.name) {
			t.Errorf("repeatability table lacks %s:\n%s%s", d.name, out.String(), errOut.String())
		}
	}
}

func TestFifoCheck(t *testing.T) {
	v := func(p int, n uint64) uint64 { return fifoValue(p, n) }
	for _, c := range []struct {
		name     string
		seen     [][]uint64 // per consumer
		left     []uint64
		produced []uint64
		wantBad  bool
	}{
		{"all delivered", [][]uint64{{v(0, 0), v(1, 0), v(0, 2)}, {v(0, 1)}}, []uint64{v(1, 1)}, []uint64{3, 2}, false},
		{"reordered", [][]uint64{{v(0, 1), v(0, 0)}, {}}, nil, []uint64{2, 0}, true},
		{"delivered twice", [][]uint64{{v(0, 0)}, {v(0, 0)}}, nil, []uint64{1, 0}, true},
		{"lost", [][]uint64{{v(0, 0)}, {}}, nil, []uint64{2, 0}, true},
		{"never enqueued", [][]uint64{{v(0, 0), v(0, 5)}, {}}, nil, []uint64{2, 0}, true},
		{"unknown producer", [][]uint64{{v(7, 0)}, {}}, nil, []uint64{0, 0}, true},
	} {
		chk := newFifoCheck(2, 2)
		var bad uint64
		for consumer, vals := range c.seen {
			for _, val := range vals {
				if !chk.see(consumer, val) {
					bad++
				}
			}
		}
		bad += chk.final(c.left, c.produced)
		if (bad > 0) != c.wantBad {
			t.Errorf("%s: %d failures, want bad = %v", c.name, bad, c.wantBad)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 = quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of 1..5 = %v, %v; want 1.5, 4.5", q1, q3)
	}
}

// BENCHMARK.json tells the driver what this catalogue tells the program.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}
