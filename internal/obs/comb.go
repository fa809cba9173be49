package obs

// CombStats collects combining-protocol-level statistics: how many
// combining rounds ran, how many operations each served (the combining
// degree — the quantity the paper's whole persistence-amortization argument
// rests on), how many operations completed without their thread ever
// becoming combiner, and how much contention/churn the protocol paid.
//
// It implements core.CombTracker; install it as the Comb field of a
// core.Probe with SetProbe on a protocol instance (or on a data structure,
// which forwards to its instances). All methods are zero-allocation and shard
// per thread.
type CombStats struct {
	rounds    *Counter // successful combining rounds
	combined  *Counter // operations served by combiners (sum of degrees)
	helped    *Counter // operations completed without combining
	lockFails *Counter // failed lock CAS acquisitions (PBcomb)
	scFails   *Counter // discarded rounds: failed SC or failed validation (PWFcomb)
	copies    *Counter // record copies performed
	copyWords *Counter // words copied (copy churn)
	degree    *ShardedHist
	batchSize *ShardedHist // vectorized-announcement sizes
}

// NewCombStats creates combiner statistics for n threads.
func NewCombStats(n int) *CombStats {
	return &CombStats{
		rounds:    NewCounter(n),
		combined:  NewCounter(n),
		helped:    NewCounter(n),
		lockFails: NewCounter(n),
		scFails:   NewCounter(n),
		copies:    NewCounter(n),
		copyWords: NewCounter(n),
		degree:    NewShardedHist(n),
		batchSize: NewShardedHist(n),
	}
}

// Round records a successful combining round by tid that served degree
// operations.
func (s *CombStats) Round(tid, degree int) {
	s.rounds.Add(tid, 1)
	s.combined.Add(tid, uint64(degree))
	s.degree.Record(tid, uint64(degree))
}

// Helped records an operation by tid that completed without tid combining.
func (s *CombStats) Helped(tid int) { s.helped.Add(tid, 1) }

// LockFail records a failed combiner-lock CAS by tid.
func (s *CombStats) LockFail(tid int) { s.lockFails.Add(tid, 1) }

// SCFail records a discarded combining round by tid (failed SC or failed
// post-copy/post-serve validation).
func (s *CombStats) SCFail(tid int) { s.scFails.Add(tid, 1) }

// Copied records a StateRec copy of the given word count by tid.
func (s *CombStats) Copied(tid, words int) {
	s.copies.Add(tid, 1)
	s.copyWords.Add(tid, uint64(words))
}

// BatchSize records the size of one vectorized announcement by tid
// (reported once per announcement, on the announcing side).
func (s *CombStats) BatchSize(tid, size int) {
	s.batchSize.Record(tid, uint64(size))
}

// CombSnapshot is a point-in-time aggregate of CombStats, shaped for export.
type CombSnapshot struct {
	Rounds      uint64 `json:"rounds"`
	CombinedOps uint64 `json:"combined_ops"`
	HelpedOps   uint64 `json:"helped_ops"`
	LockFails   uint64 `json:"lock_fails"`
	SCFails     uint64 `json:"sc_fails"`
	Copies      uint64 `json:"copies"`
	CopyWords   uint64 `json:"copy_words"`

	// MeanDegree is CombinedOps/Rounds: the average combining degree. A
	// value above 1 is combining actually happening.
	MeanDegree float64 `json:"mean_degree"`
	DegreeP50  float64 `json:"degree_p50"`
	DegreeP99  float64 `json:"degree_p99"`
	DegreeMax  uint64  `json:"degree_max"`

	// DegreeDist is the ops-per-round distribution (non-empty buckets; Lo is
	// the bucket's lower degree bound).
	DegreeDist []Bucket `json:"degree_dist,omitempty"`

	// Batch* summarize the sizes of vectorized announcements (zero when the
	// run used only scalar Invoke).
	Batches       uint64   `json:"batches,omitempty"`
	BatchMeanSize float64  `json:"batch_mean_size,omitempty"`
	BatchP50      float64  `json:"batch_p50,omitempty"`
	BatchP99      float64  `json:"batch_p99,omitempty"`
	BatchMax      uint64   `json:"batch_max,omitempty"`
	BatchDist     []Bucket `json:"batch_dist,omitempty"`
}

// Snapshot aggregates the current counters.
func (s *CombStats) Snapshot() CombSnapshot {
	out := CombSnapshot{
		Rounds:      s.rounds.Value(),
		CombinedOps: s.combined.Value(),
		HelpedOps:   s.helped.Value(),
		LockFails:   s.lockFails.Value(),
		SCFails:     s.scFails.Value(),
		Copies:      s.copies.Value(),
		CopyWords:   s.copyWords.Value(),
	}
	if out.Rounds > 0 {
		out.MeanDegree = float64(out.CombinedOps) / float64(out.Rounds)
	}
	d := s.degree.Snapshot()
	out.DegreeP50 = d.Quantile(0.50)
	out.DegreeP99 = d.Quantile(0.99)
	out.DegreeMax = d.Max()
	out.DegreeDist = d.Buckets()
	if b := s.batchSize.Snapshot(); b.Count() > 0 {
		out.Batches = b.Count()
		out.BatchMeanSize = b.Mean()
		out.BatchP50 = b.Quantile(0.50)
		out.BatchP99 = b.Quantile(0.99)
		out.BatchMax = b.Max()
		out.BatchDist = b.Buckets()
	}
	return out
}
