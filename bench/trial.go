package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// In-process workloads read the clock for one operation in sampleStride, so
// clock reads stay off the measured path; the stride is odd so that the timed
// operations of an alternating loop fall on both classes. The same clock read
// checks the phase deadline.
const sampleStride = 15

// class is one kind of operation a workload issues.
type class struct {
	name string // as printed
	span string // span name in the traced pass
	read bool   // counts toward read_p50_us, otherwise write_p50_us
}

// worker is one client goroutine's state. It lives for the whole trial; ops
// and failed are reset at each phase, seq never is.
type worker struct {
	id     int
	lat    []*samples // one per class
	ring   *spanRing
	seq    uint64 // operations issued since set-up: the request id
	ops    uint64
	failed uint64
}

// record stores a timed operation and, in the traced pass, its span.
func (w *worker) record(traced bool, c class, ci int, seq uint64, t0, t1 int64) {
	w.lat[ci].add(t1 - t0)
	if traced {
		w.ring.add(span{Name: c.span, Conn: w.id, Seq: seq, N: 1, Start: t0, End: t1})
	}
}

type phase struct {
	deadline int64 // on the now() clock
	traced   bool
}

// instance is one workload, built and preloaded, ready to be driven.
type instance interface {
	// run issues worker w's operations, closed loop, until ph.deadline.
	run(w *worker, ph phase)
	// heapStats is read between phases, when no worker runs.
	heapStats() pmemStats
	// begin is called before each measured phase, and layer after it, to add
	// the workload's own per-layer metrics for that phase to out.
	begin(traced bool)
	layer(traced bool, m *measured, out map[string]float64)
	// finish checks the final state against what the workers did and
	// releases everything; it returns how many checks failed. out, unless
	// nil, takes per-layer metrics measured on the way.
	finish(out map[string]float64) (failed uint64, err error)
}

// measured is what one measured phase produced.
type measured struct {
	ops      uint64
	failed   uint64
	elapsedS float64
	cpuS     float64
	stats    pmemStats // delta over the phase
	all      dist
	read     dist
	write    dist
	byClass  []dist
}

func (m *measured) opsPerS() float64 { return float64(m.ops) / m.elapsedS }

// trialRec is one trial's result: the end-to-end metrics of its untraced
// measured phase and, for a traced trial, the per-layer metrics.
type trialRec struct {
	Workload  string             `json:"workload"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Samples   int                `json:"samples"`
	Dropped   int                `json:"dropped_samples"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
}

type trialCfg struct {
	workload string
	seed     int64
	threads  int
	warm     time.Duration
	measure  time.Duration // each measured phase
	traced   bool          // add a traced phase, span files and the probes
	probe    time.Duration // per probe loop
	outDir   string
}

// rusage returns the process's user+system CPU seconds and its peak RSS.
func rusage() (cpuS, peakMB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runPhase drives every worker until the deadline and counts what it did;
// latency distributions are built by summarize, which the warm-up skips.
func runPhase(inst instance, workers []*worker, d time.Duration, traced bool) (*measured, error) {
	for _, w := range workers {
		w.ops, w.failed = 0, 0
		for _, s := range w.lat {
			s.reset()
		}
	}
	s0 := inst.heapStats()
	c0, _, err := rusage()
	if err != nil {
		return nil, err
	}
	t0 := now()
	ph := phase{deadline: t0 + int64(d), traced: traced}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.run(w, ph)
		}()
	}
	wg.Wait()
	t1 := now()
	c1, _, err := rusage()
	if err != nil {
		return nil, err
	}
	s1 := inst.heapStats()

	m := &measured{
		elapsedS: float64(t1-t0) / 1e9,
		cpuS:     c1 - c0,
		stats:    pmemStats{Pwbs: s1.Pwbs - s0.Pwbs, Pfences: s1.Pfences - s0.Pfences, Psyncs: s1.Psyncs - s0.Psyncs},
	}
	for _, w := range workers {
		m.ops += w.ops
		m.failed += w.failed
	}
	if m.ops == 0 {
		return nil, fmt.Errorf("phase of %v completed no operation", d)
	}
	return m, nil
}

// summarize sorts the phase's latency samples into the distributions the
// metrics read; per-class distributions only when byClass is asked for.
func (m *measured) summarize(cls []class, workers []*worker, byClass bool) {
	var all, rd, wr []*samples
	for ci, c := range cls {
		var part []*samples
		for _, w := range workers {
			part = append(part, w.lat[ci])
		}
		if byClass {
			m.byClass = append(m.byClass, merge(part...))
		}
		all = append(all, part...)
		if c.read {
			rd = append(rd, part...)
		} else {
			wr = append(wr, part...)
		}
	}
	m.all, m.read, m.write = merge(all...), merge(rd...), merge(wr...)
}

// runTrial builds one workload, warms it up, measures it untraced and, if
// asked, once more traced, then verifies the final state.
func runTrial(cfg trialCfg) (*trialRec, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Inputs and the benchmark's own buffers come first: set-up time is the
	// stack's, from building the heap to the last connection dialled.
	setup := def.prepare(cfg)
	workers := make([]*worker, cfg.threads)
	for i := range workers {
		w := &worker{id: i, ring: newSpanRing()}
		for range def.classes {
			w.lat = append(w.lat, newSamples())
		}
		workers[i] = w
	}
	t0 := now()
	inst, err := setup()
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
	}
	setupS := float64(now()-t0) / 1e9
	finished := false
	defer func() {
		if !finished {
			inst.finish(nil) // an earlier error is being returned: only release
		}
	}()

	rec := &trialRec{Workload: cfg.workload, E2E: map[string]float64{}}
	warm, err := runPhase(inst, workers, cfg.warm, false)
	if err != nil {
		return nil, err
	}
	rec.Failed += warm.failed

	inst.begin(false)
	m, err := runPhase(inst, workers, cfg.measure, false)
	if err != nil {
		return nil, err
	}
	m.summarize(def.classes, workers, false)
	rec.Attempted += m.ops
	rec.Failed += m.failed
	rec.Samples, rec.Dropped = len(m.all.ns), m.all.dropped
	ops := float64(m.ops)
	rec.E2E["setup_s"] = setupS
	rec.E2E["ops_per_s"] = m.opsPerS()
	rec.E2E["op_p50_us"] = m.all.quantileUs(0.50)
	rec.E2E["op_p99_us"] = m.all.quantileUs(0.99)
	rec.E2E["read_p50_us"] = m.read.quantileUs(0.50)
	rec.E2E["write_p50_us"] = m.write.quantileUs(0.50)
	rec.E2E["cpu_us_per_op"] = m.cpuS * 1e6 / ops

	if cfg.traced {
		rec.Layer = map[string]float64{}
		for _, d := range layerMetrics {
			rec.Layer[d.name] = 0 // a layer this workload leaves idle reads 0
		}
		rec.Layer["pmem.pwbs_per_op"] = float64(m.stats.Pwbs) / ops
		rec.Layer["pmem.pfences_per_op"] = float64(m.stats.Pfences) / ops
		rec.Layer["pmem.psyncs_per_op"] = float64(m.stats.Psyncs) / ops
		if m.stats.Psyncs > 0 {
			rec.Layer["pmem.ops_per_psync"] = ops / float64(m.stats.Psyncs)
		}
		inst.layer(false, m, rec.Layer)

		inst.begin(true)
		mt, err := runPhase(inst, workers, cfg.measure, true)
		if err != nil {
			return nil, err
		}
		mt.summarize(def.classes, workers, true)
		rec.Attempted += mt.ops
		rec.Failed += mt.failed
		rec.Layer["trace.overhead_share"] = 1 - mt.opsPerS()/m.opsPerS()
		inst.layer(true, mt, rec.Layer)
		rings := make([]*spanRing, len(workers))
		for i, w := range workers {
			rings[i] = w.ring
		}
		if sr, ok := inst.(interface{ serverRings() []*spanRing }); ok {
			rings = append(rings, sr.serverRings()...)
			rec.Notes = append(rec.Notes, reconcile(workers, sr.serverRings()))
		}
		path, err := writeSpans(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.workload, cfg.seed), rings)
		if err != nil {
			return nil, err
		}
		rec.Notes = append(rec.Notes, "spans: "+path)
	}

	finished = true
	failed, err := inst.finish(rec.Layer)
	if err != nil {
		return nil, fmt.Errorf("finish %s: %w", cfg.workload, err)
	}
	rec.Failed += failed

	if cfg.traced {
		if err := runProbes(cfg, rec.Layer); err != nil {
			return nil, err
		}
		s := m.stats
		rec.Layer["pmem.charged_us_per_op"] = (float64(s.Pwbs)*rec.Layer["pmem.pwb_ns"] +
			float64(s.Pfences)*rec.Layer["pmem.pfence_ns"] +
			float64(s.Psyncs)*rec.Layer["pmem.psync_ns"]) / ops / 1e3
	}
	if _, rec.E2E["peak_rss_mb"], err = rusage(); err != nil {
		return nil, err
	}
	return rec, nil
}
