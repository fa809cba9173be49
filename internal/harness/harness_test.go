package harness

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pcomb/internal/pmem"
)

func tinyConfig() Config {
	return Config{
		Threads: []int{1, 2},
		Ops:     400,
		Persist: pmem.Config{Mode: pmem.ModeCount, NoCost: true},
	}
}

func checkSeries(t *testing.T, name string, series []Series, wantAlgos int) {
	t.Helper()
	if len(series) != wantAlgos {
		t.Fatalf("%s: %d series, want %d", name, len(series), wantAlgos)
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("%s/%s: %d points, want 2", name, s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mops <= 0 {
				t.Fatalf("%s/%s: nonpositive throughput", name, s.Name)
			}
			if p.Ops == 0 {
				t.Fatalf("%s/%s: no ops measured", name, s.Name)
			}
		}
	}
}

func TestFig1a(t *testing.T) { checkSeries(t, "1a", Fig1a(tinyConfig()), 6) }
func TestFig1c(t *testing.T) { checkSeries(t, "1c", Fig1c(tinyConfig()), 4) }
func TestFig2a(t *testing.T) { checkSeries(t, "2a", Fig2a(tinyConfig()), 14) }
func TestFig2c(t *testing.T) { checkSeries(t, "2c", Fig2c(tinyConfig()), 8) }
func TestFig3a(t *testing.T) { checkSeries(t, "3a", Fig3a(tinyConfig()), 10) }
func TestFig3b(t *testing.T) { checkSeries(t, "3b", Fig3b(tinyConfig()), 5) }
func TestFig4(t *testing.T)  { checkSeries(t, "4", Fig4(tinyConfig()), 7) }

func TestFig1bPwbCounts(t *testing.T) {
	series := Fig1b(tinyConfig())
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	// The persistent algorithms must report nonzero pwbs/op, and the
	// combining ones must beat the per-op loggers.
	for _, name := range []string{"PBcomb", "PWFcomb", "Redo", "OneFile"} {
		for _, p := range byName[name].Points {
			if p.PwbsPerOp <= 0 {
				t.Fatalf("%s: zero pwbs/op", name)
			}
		}
	}
	pb := byName["PBcomb"].Points[1].PwbsPerOp // 2 threads
	redo := byName["Redo"].Points[1].PwbsPerOp
	if pb >= redo {
		t.Fatalf("PBcomb pwbs/op %.2f >= Redo %.2f", pb, redo)
	}
}

func TestFig2cPwbOffIsFree(t *testing.T) {
	series := Fig2c(tinyConfig())
	// With PwbOff the counters still count (for reporting) but no shadow or
	// cost work happens; sanity: every series still ran.
	for _, s := range series {
		for _, p := range s.Points {
			if p.Ops == 0 {
				t.Fatalf("%s: no ops", s.Name)
			}
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(8, 400)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Algorithm] = r
		if r.CacheMisses <= 0 {
			t.Fatalf("%s: zero cache misses", r.Algorithm)
		}
	}
	// The headline of Table 1: PBcomb stores to shared state no more often
	// than the per-op-writing baselines (strictly less once the combining
	// degree exceeds one; on a 1-CPU host with a tiny run the degree can
	// degenerate to one, making the counts equal).
	if byName["PBcomb"].StateStores > byName["CC-Synch"].StateStores+1e-9 {
		t.Fatalf("PBcomb state-stores/op %.4f > CC-Synch %.4f",
			byName["PBcomb"].StateStores, byName["CC-Synch"].StateStores)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "PBcomb") {
		t.Fatal("PrintTable1 output missing algorithms")
	}
}

func TestPrintSeries(t *testing.T) {
	series := Fig4(tinyConfig())
	var buf bytes.Buffer
	PrintSeries(&buf, "Figure 4", "Mops/s", series)
	out := buf.String()
	if !strings.Contains(out, "threads") || !strings.Contains(out, "PBcomb") {
		t.Fatalf("bad table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+len(tinyConfig().Threads) {
		t.Fatalf("unexpected table shape:\n%s", out)
	}
}

func TestMeasureCountsOps(t *testing.T) {
	h := pmem.NewHeap(pmem.Config{Mode: pmem.ModeCount, NoCost: true})
	var cnt [4]uint64
	res := Measure("x", h, 4, 1000, func(tid int, i uint64, _ *rand.Rand) {
		cnt[tid]++
	})
	if res.Ops != 1000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	var total uint64
	for _, c := range cnt {
		total += c
	}
	if total != res.Ops {
		t.Fatalf("executed %d ops, reported %d", total, res.Ops)
	}
}

func TestPrintSeriesChart(t *testing.T) {
	series := Fig4(tinyConfig())
	var buf bytes.Buffer
	PrintSeriesChart(&buf, "Figure 4", "Mops/s", series)
	out := buf.String()
	if !strings.Contains(out, "(threads)") || !strings.Contains(out, "PBcomb") {
		t.Fatalf("bad chart output:\n%s", out)
	}
	// Every series glyph used must appear somewhere on the grid.
	for i := range series {
		g := string(seriesGlyphs[i%len(seriesGlyphs)])
		if !strings.Contains(out, g) {
			t.Fatalf("glyph %q of series %s missing from chart", g, series[i].Name)
		}
	}
}

func TestPrintSeriesCSV(t *testing.T) {
	series := Fig1c(tinyConfig())
	var buf bytes.Buffer
	PrintSeriesCSV(&buf, "Figure 1c: ablation", series)
	out := buf.String()
	if !strings.HasPrefix(out, "figure,algorithm,threads,mops,pwbs_per_op,pfences_per_op,psyncs_per_op\n") {
		t.Fatalf("missing CSV header:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	want := 1 + len(series)*len(tinyConfig().Threads)
	if lines != want {
		t.Fatalf("CSV rows = %d, want %d", lines, want)
	}
}
