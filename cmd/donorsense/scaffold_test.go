package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/twitter"
)

// telemetryPages is what a live collect's telemetry server showed once
// every tweet was published: /statusz, /healthz, /metrics, and the
// /debug/traces JSON and text views (404 bodies without -trace-sample).
type telemetryPages struct {
	status obs.StatusPage
	health struct {
		Status string                    `json:"status"`
		Checks map[string]map[string]any `json:"checks"`
	}
	metrics            string
	traces, waterfalls string
}

// section returns the named /statusz section's fields, or nil when the
// page has no such section.
func (p *telemetryPages) section(name string) map[string]string {
	for _, sec := range p.status.Sections {
		if sec.Name == name {
			fields := map[string]string{}
			for _, f := range sec.Fields {
				fields[f.Key] = f.Value
			}
			return fields
		}
	}
	return nil
}

// getTelemetry fetches one telemetry page, retrying while the listener
// comes up.
func getTelemetry(url string) ([]byte, error) {
	var err error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var resp *http.Response
		if resp, err = http.Get(url); err != nil {
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		return body, rerr
	}
	return nil, err
}

// replayThenHold serves tweets through a replay at cfg, then holds the
// stream open and silent on the same connection, and on any later one,
// until release closes (never, when nil); after that it answers 410
// Gone. The test, not the corpus, decides when the collect ends.
func replayThenHold(tweets []twitter.Tweet, cfg twitter.ReplayConfig, release <-chan struct{}) (*twitter.ReplayServer, http.Handler) {
	rs := twitter.NewReplayServer(tweets, cfg)
	replay := rs.Handler()
	return rs, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
			replay.ServeHTTP(w, r)
			return
		default:
		}
		if rs.Remaining() > 0 {
			replay.ServeHTTP(w, r)
			if rs.Remaining() > 0 {
				return // dropped mid-corpus: the client reconnects
			}
		} else {
			w.WriteHeader(http.StatusOK)
		}
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
}

// collectWithTelemetry runs collect with -telemetry-addr over the test
// corpus. /statusz is rendered again and again while the replay runs, so
// the page is read while tweets fold. Once every tweet is out it records
// the pages, then ends the stream, which ends the collect.
func collectWithTelemetry(t *testing.T, extra ...string) *telemetryPages {
	release := make(chan struct{})
	rs, stream := replayThenHold(durableCorpus(), twitter.ReplayConfig{}, release)
	hs := httptest.NewServer(stream)
	defer hs.Close()
	base := "http://" + freeAddr(t)

	pages := &telemetryPages{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(release)
		for rs.Remaining() > 0 {
			if _, err := getTelemetry(base + "/statusz"); err != nil {
				t.Errorf("/statusz during ingest: %v", err)
				return
			}
		}
		raw, err := getTelemetry(base + "/statusz?format=json")
		if err == nil {
			err = json.Unmarshal(raw, &pages.status)
		}
		if err == nil {
			raw, err = getTelemetry(base + "/healthz")
		}
		if err == nil {
			err = json.Unmarshal(raw, &pages.health)
		}
		if err == nil {
			raw, err = getTelemetry(base + "/metrics")
			pages.metrics = string(raw)
		}
		if err == nil {
			raw, err = getTelemetry(base + "/debug/traces?format=json")
			pages.traces = string(raw)
		}
		if err == nil {
			raw, err = getTelemetry(base + "/debug/traces?format=text")
			pages.waterfalls = string(raw)
		}
		if err != nil {
			t.Errorf("telemetry pages: %v", err)
		}
	}()
	args := append([]string{
		"-telemetry-addr", strings.TrimPrefix(base, "http://"),
		"-stall-timeout", "30s", "-progress-every", "0",
	}, extra...)
	out := captureStdout(t, func() error { return cmdCollect(collectArgs(hs.URL, args...)) })
	<-done
	if !strings.Contains(out, "Table I") {
		t.Errorf("collect printed no report:\n%s", out)
	}
	return pages
}

// TestCollectStatuszDuringIngest renders /statusz, memory section
// included, while the fold goroutine inserts users. Under
// -race it fails if a section reads the dataset instead of
// concurrency-safe state.
func TestCollectStatuszDuringIngest(t *testing.T) {
	pages := collectWithTelemetry(t)
	mem := pages.section("memory")
	if mem == nil {
		t.Fatal("/statusz has no memory section")
	}
	if rows := mem["userstore_rows"]; rows == "" || rows == "0" {
		t.Errorf("memory section userstore_rows = %q after ingest, want > 0", rows)
	}
}

// TestCollectModesShareScaffold runs a replay through collect with
// telemetry. Its pages must carry the scaffold's metric families,
// /statusz sections and health checks: the stream's, and the fold's own
// checkpoint section and check. The subtest keeps the name of the
// single-fold mode (shards=1), which is now collect's only path.
func TestCollectModesShareScaffold(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) {
		pages := collectWithTelemetry(t)
		for _, family := range []string{
			"donorsense_stream_tweets_total", "donorsense_stream_connected",
			"donorsense_wire_decode_seconds", "donorsense_wire_decode_errors_total",
		} {
			if !strings.Contains(pages.metrics, "# TYPE "+family+" ") {
				t.Errorf("/metrics lacks family %s", family)
			}
		}
		for _, name := range []string{"stream", "memory", "tracing", "errors", "checkpoint"} {
			if pages.section(name) == nil {
				t.Errorf("/statusz lacks section %q", name)
			}
		}
		if got := pages.section("stream")["connected"]; got != "true" {
			t.Errorf("stream section connected = %q, want true", got)
		}
		for _, check := range []string{"stream", "checkpoint"} {
			if _, ok := pages.health.Checks[check]; !ok {
				t.Errorf("/healthz lacks check %q (checks %v)", check, pages.health.Checks)
			}
		}
		if got := pages.health.Checks["stream"]["connected"]; got != true {
			t.Errorf("stream health check connected = %v, want true", got)
		}
		if pages.health.Status != "ok" {
			t.Errorf("/healthz status %q, want ok", pages.health.Status)
		}
	})
}
