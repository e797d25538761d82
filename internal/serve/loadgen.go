package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// LoadConfig configures a closed-loop load run against a live query API.
type LoadConfig struct {
	// BaseURL is the telemetry server root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// Paths are the request paths rotated through per worker; defaults to
	// the fixed endpoints plus a parameterized sample.
	Paths []string
	// Concurrency is the number of closed-loop workers (default 4).
	Concurrency int
	// Duration bounds the run (default 5s); ctx can end it earlier.
	Duration time.Duration
	// UseETag replays each path's last ETag via If-None-Match, measuring
	// the steady-state 304 path like a well-behaved poller.
	UseETag bool
}

// DefaultPaths is the rotation used when LoadConfig.Paths is empty.
var DefaultPaths = []string{
	"/api/epoch", "/api/stats", "/api/states", "/api/organs",
	"/api/rr", "/api/top", "/api/clusters", "/api/top?k=25",
}

// LoadResult summarizes a load run.
type LoadResult struct {
	Requests           int64
	Errors             int64 // transport errors (not HTTP error statuses)
	NotModified        int64
	StatusCounts       map[int]int64
	Bytes              int64
	Elapsed            time.Duration
	ReqPerSec          float64
	P50, P90, P99, Max time.Duration
}

// String renders the one-screen report cmd/queryload prints.
func (r LoadResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "requests     %d (%.0f req/s over %s)\n",
		r.Requests, r.ReqPerSec, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "latency      p50=%s p90=%s p99=%s max=%s\n",
		r.P50, r.P90, r.P99, r.Max)
	fmt.Fprintf(&sb, "not-modified %d\n", r.NotModified)
	fmt.Fprintf(&sb, "bytes        %d\n", r.Bytes)
	statuses := make([]int, 0, len(r.StatusCounts))
	for code := range r.StatusCounts {
		statuses = append(statuses, code)
	}
	sort.Ints(statuses)
	for _, code := range statuses {
		fmt.Fprintf(&sb, "status %d   %d\n", code, r.StatusCounts[code])
	}
	if r.Errors > 0 {
		fmt.Fprintf(&sb, "errors       %d\n", r.Errors)
	}
	return sb.String()
}

// loadWorker is one closed loop's private state: its latency samples,
// status tallies, and per-path ETag memory. No sharing, no locks.
type loadWorker struct {
	latencies []time.Duration
	statuses  map[int]int64
	etags     map[string]string
	requests  int64
	errors    int64
	notMod    int64
	bytes     int64
}

// RunLoad drives Concurrency closed-loop workers over the paths until
// Duration elapses or ctx is done, then merges per-worker tallies.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadResult, error) {
	if cfg.BaseURL == "" {
		return LoadResult{}, fmt.Errorf("loadgen: BaseURL is required")
	}
	base := strings.TrimSuffix(cfg.BaseURL, "/")
	paths := cfg.Paths
	if len(paths) == 0 {
		paths = DefaultPaths
	}
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 4
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = 5 * time.Second
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}}
	defer client.CloseIdleConnections()

	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()

	ws := make([]*loadWorker, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		w := &loadWorker{
			statuses: make(map[int]int64),
			etags:    make(map[string]string),
		}
		ws[i] = w
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for n := offset; runCtx.Err() == nil; n++ {
				path := paths[n%len(paths)]
				w.hit(runCtx, client, base, path, cfg.UseETag)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadResult{StatusCounts: make(map[int]int64), Elapsed: elapsed}
	var all []time.Duration
	for _, w := range ws {
		res.Requests += w.requests
		res.Errors += w.errors
		res.NotModified += w.notMod
		res.Bytes += w.bytes
		for code, n := range w.statuses {
			res.StatusCounts[code] += n
		}
		all = append(all, w.latencies...)
	}
	if elapsed > 0 {
		res.ReqPerSec = float64(res.Requests) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		res.P50 = all[len(all)*50/100]
		res.P90 = all[len(all)*90/100]
		res.P99 = all[len(all)*99/100]
		res.Max = all[len(all)-1]
	}
	return res, nil
}

// hit issues one request and records its outcome on the worker.
func (w *loadWorker) hit(ctx context.Context, client *http.Client, base, path string, useETag bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		w.errors++
		return
	}
	if useETag {
		if tag := w.etags[path]; tag != "" {
			req.Header.Set("If-None-Match", tag)
		}
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		// A canceled context ending the run is not a server error.
		if ctx.Err() == nil {
			w.errors++
		}
		return
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.latencies = append(w.latencies, time.Since(t0))
	w.requests++
	w.bytes += n
	w.statuses[resp.StatusCode]++
	if resp.StatusCode == http.StatusNotModified {
		w.notMod++
	}
	if tag := resp.Header.Get("Etag"); tag != "" {
		w.etags[path] = tag
	}
}
