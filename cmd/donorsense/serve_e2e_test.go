package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/pipeline"
	"donorsense/internal/serve"
	"donorsense/internal/twitter"
)

// freeAddr grabs an ephemeral localhost port for a telemetry listener.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// apiGet fetches an API path, returning status, ETag header, and body.
func apiGet(t *testing.T, base, path, inm string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Etag"), body
}

// TestCollectServeEndToEnd runs the full live loop: a stream server, a
// collector with -serve publishing snapshots after each refresh, queries
// against the /api endpoints (200 then 304 on revalidation), a short
// cmd/queryload-style load run, and finally SIGTERM while a reader is
// hammering the API mid-request — asserting the drain semantics and a
// clean exit.
func TestCollectServeEndToEnd(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	_, stream := replayThenHold(corpus.Tweets, twitter.ReplayConfig{}, nil)
	hs := httptest.NewServer(stream)
	defer hs.Close()

	addr := freeAddr(t)
	base := "http://" + addr

	// Run the collector with its final report swallowed (the stream is
	// held open after the corpus; SIGTERM ends the run).
	collectDone := make(chan error, 1)
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	go func() { _, _ = io.Copy(io.Discard, r) }()
	defer func() { os.Stdout = stdout }()
	go func() {
		collectDone <- cmdCollect([]string{
			"-url", hs.URL, "-k", "6", "-sweep", "", "-silhouette-sample", "0",
			"-report-every", "50ms", "-telemetry-addr", addr, "-serve",
			"-serve-top", "50", "-progress-every", "0",
		})
	}()
	defer w.Close()

	// Poll until the first snapshot is served (the route 404s before).
	var etag string
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, tag, _ := apiGet(t, base, "/api/epoch", "")
		if code == http.StatusOK && tag != "" {
			etag = tag
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot served within deadline (last status %d)", code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Wait for publishing to settle (all tweets folded), then assert the
	// steady-state revalidation answer is 304 with no body.
	for settle := 0; settle < 2; {
		time.Sleep(150 * time.Millisecond)
		_, tag, _ := apiGet(t, base, "/api/epoch", "")
		if tag == etag {
			settle++
		} else {
			etag, settle = tag, 0
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never settled")
		}
	}
	code, _, body := apiGet(t, base, "/api/epoch", etag)
	if code != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation GET: status %d body %d bytes, want bare 304", code, len(body))
	}

	// The parameterized endpoints work over the live snapshot.
	if code, _, body = apiGet(t, base, "/api/top?k=3", ""); code != http.StatusOK {
		t.Fatalf("top?k=3: status %d: %s", code, body)
	}

	// A short closed-loop load run: every response is a 200 or, once the
	// per-path ETags warm up, a 304; no transport errors.
	res, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		BaseURL:     base,
		Concurrency: 4,
		Duration:    1500 * time.Millisecond,
		UseETag:     true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("load run: %d requests, %d errors\n%s", res.Requests, res.Errors, res)
	}
	for codeSeen := range res.StatusCounts {
		if codeSeen != http.StatusOK && codeSeen != http.StatusNotModified {
			t.Errorf("load run saw status %d\n%s", codeSeen, res)
		}
	}
	if res.NotModified == 0 {
		t.Errorf("load run with ETag reuse saw no 304s\n%s", res)
	}

	// SIGTERM while readers are mid-request: in-flight reads finish, late
	// arrivals get 503 + Retry-After, and collect exits cleanly.
	var badDrain atomic.Int64
	readerStop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-readerStop:
					return
				default:
				}
				resp, err := http.Get(base + "/api/stats")
				if err != nil {
					continue // listener closing is fine mid-shutdown
				}
				if resp.StatusCode == http.StatusServiceUnavailable &&
					resp.Header.Get("Retry-After") == "" {
					badDrain.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // readers in flight
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-collectDone:
		if err != nil {
			t.Fatalf("collect exited with error after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("collect did not exit after SIGTERM")
	}
	close(readerStop)
	readers.Wait()
	if n := badDrain.Load(); n != 0 {
		t.Errorf("%d drain 503s were missing Retry-After", n)
	}
}

// TestServeSubcommandOverCheckpoint boots the standalone read-only serve
// process over a saved checkpoint, queries it, and shuts it down.
func TestServeSubcommandOverCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "serve.ckpt")
	d := pipeline.SynthDataset(2000, 9)
	if err := d.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	base := "http://" + addr
	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{
			"-checkpoint", ckpt, "-addr", addr, "-reload-every", "0",
			"-k", "6", "-silhouette-sample", "0",
		})
	}()

	deadline := time.Now().Add(20 * time.Second)
	var etag string
	for {
		code, tag, _ := apiGet(t, base, "/api/epoch", "")
		if code == http.StatusOK {
			etag = tag
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never answered")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, _, _ := apiGet(t, base, "/api/epoch", etag); code != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", code)
	}
	if code, _, body := apiGet(t, base, "/api/states", ""); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("states: status %d", code)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// TestServeFlagValidation covers the fail-fast wiring checks.
func TestServeFlagValidation(t *testing.T) {
	if err := cmdCollect([]string{"-serve"}); err == nil ||
		!strings.Contains(err.Error(), "telemetry-addr") {
		t.Errorf("collect -serve without telemetry: err = %v", err)
	}
	if err := cmdCollect([]string{"-serve", "-telemetry-addr", "127.0.0.1:0"}); err == nil ||
		!strings.Contains(err.Error(), "report-every") {
		t.Errorf("collect -serve without report-every: err = %v", err)
	}
	if err := cmdServe(nil); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("serve without checkpoint: err = %v", err)
	}
}
