package main

import (
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
	"donorsense/internal/twitter"
)

// TestAnalyticsStatusSection pins the /statusz analytics section the
// live step serves: disabled, enabled-but-idle, and after a step.
func TestAnalyticsStatusSection(t *testing.T) {
	get := func(l *serve.Live, key string) (string, bool) {
		for _, f := range l.Status().Fields {
			if f.Key == key {
				return f.Value, true
			}
		}
		return "", false
	}

	if v, _ := get(nil, "enabled"); v != "false" {
		t.Errorf("no live step: enabled = %q, want false", v)
	}

	d := pipeline.SynthDataset(500, 3)
	cfg, _ := analysisConfig(6, "", 0, 1)
	l := &serve.Live{Analysis: cfg, Every: 5 * time.Second, Logger: obs.Logger("analytics")}
	l.Load(d)
	if v, _ := get(l, "enabled"); v != "true" {
		t.Errorf("live step: enabled = %q, want true", v)
	}
	if v, _ := get(l, "age"); v != "never refreshed this run" {
		t.Errorf("idle step: age = %q, want never refreshed", v)
	}
	if _, ok := get(l, "last_dirty_rows"); ok {
		t.Error("idle step exposed last_dirty_rows before any refresh")
	}

	if err := l.Step(); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"refresh_every":   "5s",
		"refreshes":       "1",
		"epoch":           "0",
		"last_dirty_rows": "0",
		"last_cold":       "true",
		"users":           fmt.Sprint(d.Users()),
	} {
		got, ok := get(l, key)
		if !ok {
			t.Errorf("stepped section missing field %q", key)
			continue
		}
		if got != want {
			t.Errorf("field %s = %q, want %q", key, got, want)
		}
	}
	if v, _ := get(l, "last_latency"); v == "" {
		t.Error("stepped section has no last_latency")
	}
}

// TestCollectReportEvery runs a live collect with in-flight incremental
// refreshes enabled and a checkpoint, then asserts the final report
// still prints and the clustering warm state rode the checkpoint: the
// reloaded dataset carries an analytics blob a fresh engine accepts.
func TestCollectReportEvery(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	hs := httptest.NewServer(twitter.NewReplayServer(corpus.Tweets, twitter.ReplayConfig{}).Handler())
	defer hs.Close()

	ckpt := filepath.Join(t.TempDir(), "report.ckpt")
	out := captureStdout(t, func() error {
		return cmdCollect([]string{
			"-url", hs.URL, "-k", "6", "-sweep", "", "-silhouette-sample", "0",
			"-checkpoint", ckpt, "-report-every", "1ms",
		})
	})
	for _, want := range []string{"Table I", "Figure 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("collect output missing %q", want)
		}
	}

	d, err := pipeline.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	blob := d.AnalyticsState()
	if len(blob) == 0 {
		t.Fatal("checkpoint carries no analytics warm state after -report-every run")
	}
	cfg := report.DefaultAnalysisConfig()
	cfg.KUsers = 6
	cfg.SweepKs = nil
	cfg.SilhouetteSample = 0
	eng := report.NewEngine(d, cfg)
	if err := eng.RestoreWarm(blob); err != nil {
		t.Fatalf("RestoreWarm rejected the checkpointed blob: %v", err)
	}
	if _, err := eng.Refresh(); err != nil {
		t.Fatalf("refresh after warm restore: %v", err)
	}
}
