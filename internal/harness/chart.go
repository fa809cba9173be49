package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// chart geometry.
const (
	chartHeight = 20
	chartWidth  = 64
)

// seriesGlyphs mark data points of successive series.
var seriesGlyphs = []byte("*o+x#@%&$~^=")

// PrintSeriesChart renders a figure as an ASCII line chart (metric vs
// thread count), the closest a terminal gets to the paper's plots. Thread
// counts map to x positions on a rank scale (like the paper's categorical
// axis); the y axis is linear from zero.
func PrintSeriesChart(w io.Writer, title, metric string, series []Series) {
	fmt.Fprintf(w, "# %s (%s)\n", title, metric)
	if len(series) == 0 {
		return
	}

	// Collect the x axis (union of thread counts) and the y range.
	threadSet := map[int]bool{}
	maxV := 0.0
	val := func(p Result) float64 {
		v, _ := p.Metric(metric)
		return v
	}
	for _, s := range series {
		for _, p := range s.Points {
			threadSet[p.Threads] = true
			if v := val(p); v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	var threads []int
	for t := range threadSet {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	xpos := map[int]int{}
	for i, t := range threads {
		x := 0
		if len(threads) > 1 {
			x = i * (chartWidth - 1) / (len(threads) - 1)
		}
		xpos[t] = x
	}

	grid := make([][]byte, chartHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", chartWidth))
	}
	plot := func(t int, v float64, glyph byte) {
		x := xpos[t]
		y := chartHeight - 1 - int(v/maxV*float64(chartHeight-1)+0.5)
		if y < 0 {
			y = 0
		}
		if y >= chartHeight {
			y = chartHeight - 1
		}
		if grid[y][x] == ' ' {
			grid[y][x] = glyph
		} else if grid[y][x] != glyph {
			grid[y][x] = '?' // collision between series
		}
	}
	for si, s := range series {
		g := seriesGlyphs[si%len(seriesGlyphs)]
		for _, p := range s.Points {
			plot(p.Threads, val(p), g)
		}
	}

	for i, row := range grid {
		label := "        "
		switch i {
		case 0:
			label = fmt.Sprintf("%7.2f ", maxV)
		case chartHeight / 2:
			label = fmt.Sprintf("%7.2f ", maxV/2)
		case chartHeight - 1:
			label = fmt.Sprintf("%7.2f ", 0.0)
		}
		fmt.Fprintf(w, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(w, "        +%s\n", strings.Repeat("-", chartWidth))

	// x tick labels.
	ticks := []byte(strings.Repeat(" ", chartWidth))
	for _, t := range threads {
		lbl := fmt.Sprintf("%d", t)
		x := xpos[t]
		if x+len(lbl) > chartWidth {
			x = chartWidth - len(lbl)
		}
		copy(ticks[x:], lbl)
	}
	fmt.Fprintf(w, "         %s  (threads)\n", string(ticks))

	for si, s := range series {
		fmt.Fprintf(w, "  %c %s", seriesGlyphs[si%len(seriesGlyphs)], s.Name)
		if (si+1)%4 == 0 {
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// PrintSeriesCSV renders a figure as CSV — one row per measured point, for
// downstream plotting. The fixed columns cover every persistence
// instruction class; any Extra metrics present across the series (latency
// quantiles, combining stats) become additional columns in sorted key
// order, empty where a point lacks them.
func PrintSeriesCSV(w io.Writer, title string, series []Series) {
	tag := strings.Fields(title)
	name := title
	if len(tag) > 0 {
		name = strings.TrimSuffix(tag[len(tag)-1], ":")
		if len(tag) > 1 {
			name = strings.TrimSuffix(tag[1], ":")
		}
	}
	extraSet := map[string]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			for k := range p.Extra {
				extraSet[k] = true
			}
		}
	}
	extras := make([]string, 0, len(extraSet))
	for k := range extraSet {
		extras = append(extras, k)
	}
	sort.Strings(extras)

	fmt.Fprint(w, "figure,algorithm,threads,mops,pwbs_per_op,pfences_per_op,psyncs_per_op")
	for _, k := range extras {
		fmt.Fprintf(w, ",%s", strings.NewReplacer(",", "_", "/", "_per_").Replace(k))
	}
	fmt.Fprintln(w)
	for _, s := range series {
		pts := append([]Result(nil), s.Points...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].Threads < pts[j].Threads })
		for _, p := range pts {
			fmt.Fprintf(w, "%s,%s,%d,%.4f,%.4f,%.4f,%.4f",
				name, s.Name, p.Threads, p.Mops, p.PwbsPerOp, p.PfencesPerOp, p.PsyncsPerOp)
			for _, k := range extras {
				if v, ok := p.Extra[k]; ok {
					fmt.Fprintf(w, ",%.4f", v)
				} else {
					fmt.Fprint(w, ",")
				}
			}
			fmt.Fprintln(w)
		}
	}
}
