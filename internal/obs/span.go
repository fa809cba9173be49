package obs

// Per-operation lifecycle tracing. A SpanLog records, per thread, the timed
// phases one operation passes through inside a combining protocol — publish
// the announcement, back off, serve a round, persist it, wait to be served,
// resolve a batched future — into fixed-size per-thread rings. Recording is
// allocation-free; when no SpanLog is installed the protocols skip the
// timestamp reads entirely, so the disabled path costs one predictable nil
// check per hook site.
//
// The point is attribution: aggregate metrics (CombStats, latency
// histograms) show that combining amortizes persistence, while spans show
// *where* an individual operation's latency went — the signal a tail-latency
// report needs, and the signal a relaxed-durability mode must not regress.

// Phase identifies one lifecycle phase of an operation.
type Phase uint8

// Lifecycle phases. PhaseOp is the enclosing whole-operation span (recorded
// by the harness); the others nest inside it on the same thread track, so a
// Chrome-trace export renders them as a flame-like per-op breakdown.
const (
	// PhaseOp spans the whole operation, invocation to response.
	PhaseOp Phase = iota
	// PhasePublish is the announce/publish step: writing the request slot or
	// the persistent argument ring (including the ring's pwb+pfence). Arg
	// carries the announced vector length (1 for scalars).
	PhasePublish
	// PhaseBackoff is the adaptive announce backoff between publishing and
	// competing to combine. Arg is unused.
	PhaseBackoff
	// PhaseWaitServe is time spent waiting for another thread's combining
	// round to serve the request (including waiting out that round's psync).
	PhaseWaitServe
	// PhaseCombine is the combiner role up to durability: copying/refreshing
	// the working record and serving the gathered batch on it. Arg carries
	// the number of operations served.
	PhaseCombine
	// PhasePersist is making a combining round durable: the record pwbs, the
	// pfence, the index/S switch, and the psync. Arg carries the number of
	// pwb line write-backs issued in the span.
	PhasePersist
	// PhaseResolve is an async-path flush: committing a staged vector and
	// resolving its futures. Arg carries the flushed batch size.
	PhaseResolve

	numPhases
)

// NumPhases is the number of defined phases (export/rendering loops).
const NumPhases = int(numPhases)

func (p Phase) String() string {
	switch p {
	case PhaseOp:
		return "op"
	case PhasePublish:
		return "publish"
	case PhaseBackoff:
		return "backoff"
	case PhaseWaitServe:
		return "wait-serve"
	case PhaseCombine:
		return "combine"
	case PhasePersist:
		return "persist"
	case PhaseResolve:
		return "resolve"
	}
	return "?"
}

// Span is one recorded phase interval. Start and End are Now timestamps
// (monotonic ns since process start); Arg is phase-specific (see the Phase
// constants).
type Span struct {
	Phase Phase
	Start int64
	End   int64
	Arg   uint64
}

// spanShard is one thread's ring. Owned by its thread while recording; the
// padding keeps neighboring shards' hot words off a shared cache line.
type spanShard struct {
	ring  []Span
	next  int
	total uint64
	_     [5]uint64
}

// SpanLog records per-operation lifecycle spans into per-thread rings of
// fixed capacity (oldest spans are overwritten) and aggregates per-phase
// duration histograms. Record is single-writer per tid and allocation-free;
// the histograms are atomic, so a telemetry endpoint may snapshot quantiles
// while a run is in flight. Ring contents should be read only after the
// recording threads have quiesced.
type SpanLog struct {
	shards []spanShard
	hist   [numPhases]*ShardedHist
}

// DefaultSpanCap is the per-thread ring capacity used when NewSpanLog is
// given a non-positive one.
const DefaultSpanCap = 1 << 14

// NewSpanLog creates a span log for n threads with rings of cap spans each.
func NewSpanLog(n, cap int) *SpanLog {
	if n <= 0 {
		n = 1
	}
	if cap <= 0 {
		cap = DefaultSpanCap
	}
	l := &SpanLog{shards: make([]spanShard, n)}
	for i := range l.shards {
		l.shards[i].ring = make([]Span, cap)
	}
	for p := range l.hist {
		l.hist[p] = NewShardedHist(n)
	}
	return l
}

// Threads returns the number of per-thread rings.
func (l *SpanLog) Threads() int { return len(l.shards) }

// Cap returns the per-thread ring capacity.
func (l *SpanLog) Cap() int { return len(l.shards[0].ring) }

// Record adds one span for thread tid. Zero allocation; must be called only
// by tid's goroutine.
func (l *SpanLog) Record(tid int, ph Phase, start, end int64, arg uint64) {
	s := &l.shards[tid]
	s.ring[s.next] = Span{Phase: ph, Start: start, End: end, Arg: arg}
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
	}
	s.total++
	l.hist[ph].Record(tid, uint64(end-start))
}

// Recorded returns the total number of spans thread tid ever recorded
// (including any the ring has since overwritten).
func (l *SpanLog) Recorded(tid int) uint64 { return l.shards[tid].total }

// Dropped returns how many of tid's spans were overwritten by ring wrap.
func (l *SpanLog) Dropped(tid int) uint64 {
	if s := &l.shards[tid]; s.total > uint64(len(s.ring)) {
		return s.total - uint64(len(s.ring))
	}
	return 0
}

// Spans returns thread tid's retained spans in recording order (oldest
// first). Call only after tid's recording has quiesced.
func (l *SpanLog) Spans(tid int) []Span {
	s := &l.shards[tid]
	if s.total <= uint64(len(s.ring)) {
		return append([]Span(nil), s.ring[:s.next]...)
	}
	out := make([]Span, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	return append(out, s.ring[:s.next]...)
}

// PhaseHist merges all threads' duration histogram for one phase.
func (l *SpanLog) PhaseHist(ph Phase) *Hist { return l.hist[ph].Snapshot() }

// PhaseSummary is the exported duration summary of one phase (nanoseconds).
type PhaseSummary struct {
	Phase  string  `json:"phase"`
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p999"`
	MaxNs  uint64  `json:"max"`
}

// PhaseSummaries snapshots the duration summary of every phase that recorded
// at least one span.
func (l *SpanLog) PhaseSummaries() []PhaseSummary {
	var out []PhaseSummary
	for p := Phase(0); p < numPhases; p++ {
		h := l.hist[p].Snapshot()
		if h.Count() == 0 {
			continue
		}
		out = append(out, PhaseSummary{
			Phase:  p.String(),
			Count:  h.Count(),
			MeanNs: h.Mean(),
			P50:    h.Quantile(0.50),
			P99:    h.Quantile(0.99),
			P999:   h.Quantile(0.999),
			MaxNs:  h.Max(),
		})
	}
	return out
}
