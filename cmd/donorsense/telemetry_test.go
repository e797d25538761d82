package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
	"donorsense/internal/twitter"
)

// scrapeMetrics fetches and parses a /metrics exposition into a
// series → value map (labels kept verbatim in the key).
func scrapeMetrics(t *testing.T, url string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	series := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		series[line[:sp]] = v
	}
	return series, body
}

// TestTelemetryMatchesInjectedChaosFaults runs the chaos simulator
// against a fully instrumented collect loop (stream client + pipeline +
// checkpoint), then scrapes /metrics and asserts the reported counters
// equal the faults the simulator actually injected — the property that
// makes a multi-day run's telemetry trustworthy.
func TestTelemetryMatchesInjectedChaosFaults(t *testing.T) {
	corpus := durableCorpus()
	cs := twitter.NewReplayServer(corpus, twitter.ReplayConfig{
		Seed:            11,
		FaultRate:       0.01,             // each injected stall costs the client's 500 ms watchdog
		StallDuration:   10 * time.Second, // client watchdog must fire first
		RateLimitRate:   0.2,
		ServerErrorRate: 0.2,
		RetryAfter:      10 * time.Millisecond,
	})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()

	reg := obs.NewRegistry()
	client := &twitter.StreamClient{
		BaseURL:          hs.URL,
		InitialBackoff:   2 * time.Millisecond,
		MaxBackoff:       8 * time.Millisecond,
		RateLimitBackoff: time.Millisecond,
		StallTimeout:     500 * time.Millisecond,
		HealthyTweets:    20,
	}
	twitter.NewStreamMetrics(reg).Instrument(reg, client)

	d := pipeline.NewDataset()
	d.SetMetrics(pipeline.NewMetrics(reg))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out := make(chan twitter.Tweet, 256)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), out) }()
	for tw := range out {
		d.Process(tw)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Filter: %v", err)
	}
	// One checkpoint save so the durability metrics are live too.
	ckpt := filepath.Join(t.TempDir(), "telemetry.ckpt")
	if err := d.SaveCheckpoint(ckpt); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	// One live step — an incremental analysis refresh and a snapshot
	// publish behind the query API — so the analytics and serve families
	// are live in the same exposition.
	ecfg := report.DefaultAnalysisConfig()
	ecfg.KUsers = 0
	ecfg.SweepKs = nil
	ecfg.SilhouetteSample = 0
	ecfg.Workers = 1
	pub := serve.NewPublisher()
	apiHandler := serve.NewHandler(pub)
	apiHandler.SetMetrics(serve.NewMetrics(reg, pub))
	live := &serve.Live{Analysis: ecfg, Top: 25, Publisher: pub,
		Metrics: report.NewEngineMetrics(reg), Logger: obs.Logger("analytics")}
	live.Load(d)
	if err := live.Step(); err != nil {
		t.Fatalf("live step: %v", err)
	}

	osrv := obs.NewServer(reg)
	osrv.SetQueryAPI(apiHandler)
	ts := httptest.NewServer(osrv.Handler())
	defer ts.Close()

	// Drive each serve result class once — a cached hit, a 304
	// revalidation, and a cold parameterized render — so the per-result
	// series carry exact, assertable values.
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("Etag")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("GET /api/stats: status %d etag %q", resp.StatusCode, etag)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/stats", nil)
	req.Header.Set("If-None-Match", etag)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation GET: status %d, want 304", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/api/top?k=3"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/top?k=3: status %d", resp.StatusCode)
	}

	series, body := scrapeMetrics(t, ts.URL)

	injected := cs.Stats()
	if injected.Stalls+injected.Malformed+injected.Oversized+injected.RateLimited == 0 {
		t.Fatal("chaos injected no faults; test exercised nothing")
	}

	// Injected fault counts must equal the scraped metric values.
	equal := map[string]float64{
		"donorsense_stream_stalls_total":          float64(injected.Stalls),
		"donorsense_stream_malformed_lines_total": float64(injected.Malformed),
		"donorsense_stream_skipped_lines_total":   float64(injected.Oversized),
		"donorsense_stream_rate_limits_total":     float64(injected.RateLimited),
		"donorsense_stream_delete_notices_total":  float64(injected.Deletes),
		"donorsense_stream_tweets_total":          float64(injected.Delivered),
	}
	for name, want := range equal {
		got, ok := series[name]
		if !ok {
			t.Errorf("metric %s missing from /metrics", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, injected = %g", name, got, want)
		}
	}

	// The pipeline saw exactly what the stream delivered.
	pipelineTotal := series[`donorsense_pipeline_tweets_total{outcome="rejected"}`] +
		series[`donorsense_pipeline_tweets_total{outcome="collected_non_us"}`] +
		series[`donorsense_pipeline_tweets_total{outcome="collected_us"}`]
	if pipelineTotal != float64(injected.Delivered) {
		t.Errorf("pipeline outcomes sum = %g, stream delivered %d", pipelineTotal, injected.Delivered)
	}

	// Checkpoint metrics are live after one save.
	if series["donorsense_checkpoint_saves_total"] != 1 {
		t.Errorf("checkpoint_saves_total = %g, want 1", series["donorsense_checkpoint_saves_total"])
	}
	if series["donorsense_checkpoint_bytes"] <= 0 {
		t.Errorf("checkpoint_bytes = %g, want > 0", series["donorsense_checkpoint_bytes"])
	}

	// Acceptance: the endpoint exposes ≥ 20 distinct families covering
	// stream health, every pipeline stage, geocode cache, checkpointing.
	families := 0
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
	}
	if families < 20 {
		t.Errorf("exposed %d metric families, want >= 20\n%s", families, body)
	}
	for _, must := range []string{
		"donorsense_stream_connected",
		"donorsense_stream_backoff_wait_seconds",
		"donorsense_pipeline_stage_seconds",
		"donorsense_pipeline_geocode_cache_hits_total",
		"donorsense_pipeline_geocode_cache_misses_total",
		"donorsense_geo_resolutions_total",
		"donorsense_pipeline_usa_filter_total",
		"donorsense_checkpoint_save_seconds",
		"donorsense_checkpoint_fallbacks_total",
		"donorsense_analytics_refresh_seconds",
		"donorsense_analytics_epoch",
		"donorsense_analytics_dirty_rows",
		"donorsense_serve_requests_total",
		"donorsense_serve_render_seconds",
		"donorsense_serve_cache_size",
	} {
		if !strings.Contains(body, must) {
			t.Errorf("family %s missing from exposition", must)
		}
	}

	// The analytics engine observed exactly one (cold) refresh.
	if series["donorsense_analytics_refresh_seconds_count"] != 1 {
		t.Errorf("analytics_refresh_seconds_count = %g, want 1",
			series["donorsense_analytics_refresh_seconds_count"])
	}
	if series["donorsense_analytics_epoch"] != 0 {
		t.Errorf("analytics_epoch = %g, want 0 after a cold build",
			series["donorsense_analytics_epoch"])
	}
	// ... and split it into one observation per stage.
	for _, stage := range []string{"patch", "characterize", "kmeans", "assemble"} {
		name := `donorsense_analyze_stage_seconds_count{stage="` + stage + `"}`
		if got := series[name]; got != 1 {
			t.Errorf("%s = %g, want 1", name, got)
		}
	}

	// The serve layer counted exactly what the three API requests did:
	// one cached hit, one 304, one cold render that landed in the cache.
	serveExact := map[string]float64{
		`donorsense_serve_requests_total{endpoint="stats",result="hit"}`:          1,
		`donorsense_serve_requests_total{endpoint="stats",result="not_modified"}`: 1,
		`donorsense_serve_requests_total{endpoint="top",result="render"}`:         1,
		"donorsense_serve_render_seconds_count":                                   1,
		"donorsense_serve_cache_size":                                             1,
	}
	for name, want := range serveExact {
		if got := series[name]; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}

	// Histogram quantiles must be derivable: the stage histogram's +Inf
	// bucket equals its count.
	inf := series[`donorsense_pipeline_stage_seconds_bucket{stage="ingest",le="+Inf"}`]
	cnt := series[`donorsense_pipeline_stage_seconds_count{stage="ingest"}`]
	if inf == 0 || inf != cnt {
		t.Errorf("ingest histogram +Inf bucket %g != count %g (or zero)", inf, cnt)
	}
}
