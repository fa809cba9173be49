package obs

import (
	"encoding/json"
	"io"
)

// RunRecord is one measured benchmark point as exported to JSONL: the
// aggregate figures the tables print plus, when metrics were enabled, the
// latency summary and combining statistics.
type RunRecord struct {
	Figure    string `json:"figure,omitempty"`
	Algorithm string `json:"algorithm"`
	Threads   int    `json:"threads"`
	Ops       uint64 `json:"ops"`
	ElapsedNs int64  `json:"elapsed_ns"`

	Mops         float64 `json:"mops"`
	PwbsPerOp    float64 `json:"pwbs_per_op"`
	PfencesPerOp float64 `json:"pfences_per_op"`
	PsyncsPerOp  float64 `json:"psyncs_per_op"`

	Latency   *LatencySummary    `json:"latency_ns,omitempty"`
	Combining *CombSnapshot      `json:"combining,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// AppendJSONL writes v as one JSON line.
func AppendJSONL(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}
