package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// waterfallStages is the complete per-tweet span chain the tracer
// promises: stream read → wire decode → organ extraction → geocode →
// in-order fold.
var waterfallStages = []string{
	"stream.read", "wire.decode", "ingest.extract", "ingest.locate", "ingest.fold",
}

// TestTraceSmokeWaterfall is the end-to-end smoke test behind `make
// trace-smoke`: collect a corpus at 100% sampling with a checkpoint,
// then assert /debug/traces served complete per-tweet waterfalls and a
// checkpoint.save span that continues a folded tweet's trace.
func TestTraceSmokeWaterfall(t *testing.T) {
	pages := collectWithTelemetry(t, "-trace-sample", "1", "-trace-ring", "32768",
		"-checkpoint", filepath.Join(t.TempDir(), "smoke.ckpt"), "-checkpoint-every", "20ms")

	if got := pages.section("tracing")["enabled"]; got != "true" {
		t.Errorf("tracing section enabled = %q, want true", got)
	}
	var body struct {
		Traces int `json:"traces"`
		Spans  []struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(pages.traces), &body); err != nil {
		t.Fatalf("traces json: %v\n%.300s", err, pages.traces)
	}
	if body.Traces == 0 {
		t.Fatal("no traces recorded at 100% sampling")
	}
	stages := map[string]map[string]bool{} // trace id → span-name set
	var checkpointTraces []string
	for _, sp := range body.Spans {
		if stages[sp.TraceID] == nil {
			stages[sp.TraceID] = map[string]bool{}
		}
		stages[sp.TraceID][sp.Name] = true
		if sp.Name == "checkpoint.save" {
			checkpointTraces = append(checkpointTraces, sp.TraceID)
		}
	}
	var complete []string
	for id, names := range stages {
		whole := true
		for _, stage := range waterfallStages {
			whole = whole && names[stage]
		}
		if whole {
			complete = append(complete, id)
		}
	}
	if len(complete) == 0 {
		t.Fatalf("no complete waterfall among %d traces", len(stages))
	}
	if len(checkpointTraces) == 0 {
		t.Error("no checkpoint.save span recorded")
	}
	// The checkpoint span continues a folded tweet's trace — the
	// waterfall reaches from stream read into durability.
	continues := false
	for _, id := range checkpointTraces {
		if stages[id]["ingest.fold"] {
			continues = true
			break
		}
	}
	if !continues {
		t.Error("checkpoint.save spans do not continue any folded tweet's trace")
	}

	// The text view, read just after the JSON one, renders a complete
	// trace as a waterfall. Spans folded in between may have pushed the
	// oldest traces out of the ring, so any complete trace will do.
	rendered := false
	for _, id := range complete {
		rendered = rendered || strings.Contains(pages.waterfalls, "=== trace "+id)
	}
	if !rendered || !strings.Contains(pages.waterfalls, "ingest.fold") {
		t.Errorf("text view renders none of the %d complete traces", len(complete))
	}
}
