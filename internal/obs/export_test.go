package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pcomb/internal/pmem"
)

func TestJSONLRoundTrip(t *testing.T) {
	recs := []RunRecord{
		{Figure: "1a", Algorithm: "PBcomb", Threads: 8, Ops: 1000, Mops: 3.5,
			PwbsPerOp: 1.2, Latency: &LatencySummary{Count: 1000, P50: 250},
			Combining: &CombSnapshot{Rounds: 40, CombinedOps: 960, MeanDegree: 24}},
		{Figure: "1a", Algorithm: "Redo", Threads: 8, Ops: 1000, Mops: 0.9},
	}
	var buf bytes.Buffer
	for _, r := range recs {
		if err := AppendJSONL(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var back RunRecord
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "PBcomb" || back.Latency == nil || back.Latency.P50 != 250 ||
		back.Combining == nil || back.Combining.MeanDegree != 24 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	// The second record had no metrics: its optional sections must be
	// omitted from the JSON, not emitted as nulls-with-keys.
	if strings.Contains(lines[1], "latency_ns") || strings.Contains(lines[1], "combining") {
		t.Fatalf("empty optional sections serialized: %s", lines[1])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	traces := []NamedTrace{
		{Name: "PBqueue", Events: []pmem.TraceEvent{
			{Kind: pmem.TracePwb, Region: "q", LineLo: 3, LineHi: 5, TS: 1000, Dur: 600, Ctx: 0},
			{Kind: pmem.TracePfence, TS: 1700, Dur: 30, Ctx: 0},
			{Kind: pmem.TracePsync, TS: 2000, Dur: 400, Ctx: 1},
		}},
		{Name: "Redo", Events: []pmem.TraceEvent{
			{Kind: pmem.TracePwb, Region: "log", LineLo: 0, LineHi: 0, TS: 0, Dur: 200, Ctx: 0},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traces); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	// 2 process_name metadata events + 4 instruction events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	var metas, completes int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			metas++
			if e["name"] != "process_name" {
				t.Fatalf("bad metadata event %v", e)
			}
		case "X":
			completes++
			if e["ts"].(float64) < 0 || e["dur"].(float64) <= 0 {
				t.Fatalf("bad timing in %v", e)
			}
		}
	}
	if metas != 2 || completes != 4 {
		t.Fatalf("metas=%d completes=%d", metas, completes)
	}
	if !strings.Contains(buf.String(), `"pwb q"`) {
		t.Fatalf("pwb event missing region-qualified name:\n%s", buf.String())
	}
}
