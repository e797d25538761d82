package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/obs/trace"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

// waterfallStages is the complete per-tweet span chain the tracing
// tentpole promises: stream read → wire decode → organ extraction →
// geocode → in-order fold.
var waterfallStages = []string{
	"stream.read", "wire.decode", "ingest.extract", "ingest.locate", "ingest.fold",
}

// TestTraceSmokeWaterfall is the end-to-end smoke test behind `make
// trace-smoke`: collect a corpus through the sharded supervisor at 100%
// sampling, then assert /debug/traces serves complete per-tweet
// waterfalls with shard attribution and a checkpoint.save continuation,
// and /statusz reports every shard.
func TestTraceSmokeWaterfall(t *testing.T) {
	corpus := durableCorpus()
	hs := httptest.NewServer(twitter.NewReplayServer(corpus, twitter.ReplayConfig{}).Handler())
	defer hs.Close()

	tracer := trace.New(trace.Config{SampleRate: 1, RingSize: 1 << 15, SlowSpan: time.Hour})
	client := &twitter.StreamClient{BaseURL: hs.URL, Tracer: tracer}

	reg := obs.NewRegistry()
	sup, err := pipeline.NewSupervisor(pipeline.SupervisorConfig{
		Shards:           2,
		CheckpointBase:   filepath.Join(t.TempDir(), "smoke.ckpt"),
		CheckpointEveryN: 500,
		Tracer:           tracer,
		Metrics:          pipeline.NewShardMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out := make(chan twitter.Tweet, 256)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), out) }()
	if err := sup.Run(ctx, out); err != nil {
		t.Fatalf("supervisor Run: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Filter: %v", err)
	}

	osrv := obs.NewServer(reg)
	osrv.SetTraceRing(tracer.Ring())
	osrv.AddStatus("shards", shardStatusSection(sup))
	ts := httptest.NewServer(osrv.Handler())
	defer ts.Close()

	// JSON view: at least one trace must hold the complete waterfall.
	var body struct {
		Traces int `json:"traces"`
		Spans  []struct {
			TraceID string            `json:"trace_id"`
			Name    string            `json:"name"`
			Attrs   map[string]string `json:"attrs"`
		} `json:"spans"`
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, raw)
		}
		return string(raw)
	}
	if err := json.Unmarshal([]byte(get("/debug/traces?format=json")), &body); err != nil {
		t.Fatalf("traces json: %v", err)
	}
	if body.Traces == 0 {
		t.Fatal("no traces recorded at 100% sampling")
	}
	stages := map[string]map[string]bool{} // trace id → span-name set
	foldAttributed := false
	var checkpointTraces []string
	for _, sp := range body.Spans {
		if stages[sp.TraceID] == nil {
			stages[sp.TraceID] = map[string]bool{}
		}
		stages[sp.TraceID][sp.Name] = true
		if sp.Name == "ingest.fold" && sp.Attrs["shard"] != "" && sp.Attrs["incarnation"] != "" {
			foldAttributed = true
		}
		if sp.Name == "checkpoint.save" {
			checkpointTraces = append(checkpointTraces, sp.TraceID)
		}
	}
	var completeTrace string
	for id, names := range stages {
		complete := true
		for _, stage := range waterfallStages {
			if !names[stage] {
				complete = false
				break
			}
		}
		if complete {
			completeTrace = id
			break
		}
	}
	if completeTrace == "" {
		t.Fatalf("no complete waterfall among %d traces", len(stages))
	}
	if !foldAttributed {
		t.Error("no fold span carries shard+incarnation attribution")
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

	// Text view of the complete trace renders a waterfall.
	text := get("/debug/traces?format=text&trace=" + completeTrace)
	if !strings.Contains(text, "=== trace "+completeTrace) || !strings.Contains(text, "ingest.fold") {
		t.Errorf("text waterfall missing for trace %s:\n%s", completeTrace, text)
	}

	// /statusz reports both shards, retired cleanly.
	statusz := get("/statusz")
	if !strings.Contains(statusz, "== shards ==") {
		t.Fatalf("statusz missing shards section:\n%s", statusz)
	}
	for _, row := range []string{"0      done", "1      done"} {
		if !strings.Contains(statusz, row) {
			t.Errorf("statusz missing shard row %q:\n%s", row, statusz)
		}
	}
}
