package main

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/twitter"
)

// TestAnalyticsStatusSection pins the /statusz analytics section:
// disabled, enabled-but-idle, and after a refresh has been published.
func TestAnalyticsStatusSection(t *testing.T) {
	get := func(p *analyticsProbe, key string) (string, bool) {
		sec := analyticsStatus(p)()
		for _, f := range sec.Fields {
			if f.Key == key {
				return f.Value, true
			}
		}
		return "", false
	}

	if v, _ := get(&analyticsProbe{}, "enabled"); v != "false" {
		t.Errorf("disabled probe: enabled = %q, want false", v)
	}

	p := &analyticsProbe{enabled: true, every: 5 * time.Second}
	if v, _ := get(p, "enabled"); v != "true" {
		t.Errorf("enabled probe: enabled = %q, want true", v)
	}
	if v, _ := get(p, "age"); v != "never refreshed this run" {
		t.Errorf("idle probe: age = %q, want never refreshed", v)
	}
	if _, ok := get(p, "last_dirty_rows"); ok {
		t.Error("idle probe exposed last_dirty_rows before any refresh")
	}

	p.refreshes.Store(3)
	p.epoch.Store(2)
	p.dirty.Store(417)
	p.latencyNS.Store(int64(1500 * time.Microsecond))
	p.cold.Store(false)
	p.users.Store(9001)
	p.lastUnix.Store(time.Now().UnixNano())
	for key, want := range map[string]string{
		"refresh_every":   "5s",
		"refreshes":       "3",
		"epoch":           "2",
		"last_dirty_rows": "417",
		"last_latency":    "1.5ms",
		"last_cold":       "false",
		"users":           "9001",
	} {
		got, ok := get(p, key)
		if !ok {
			t.Errorf("refreshed probe missing field %q", key)
			continue
		}
		if got != want {
			t.Errorf("field %s = %q, want %q", key, got, want)
		}
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
