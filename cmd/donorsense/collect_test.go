package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/pipeline"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

func TestCollectAgainstLiveServer(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	hs := httptest.NewServer(twitter.NewReplayServer(corpus.Tweets, twitter.ReplayConfig{}).Handler())
	defer hs.Close()

	out := captureStdout(t, func() error {
		return cmdCollect([]string{"-url", hs.URL, "-k", "6", "-sweep", ""})
	})
	for _, want := range []string{"Table I", "Figure 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("collect output missing %q", want)
		}
	}
}

func TestCollectBadURL(t *testing.T) {
	// An unroutable URL with one connect attempt must fail cleanly. The
	// client keeps retrying transient errors, so use a 4xx-producing
	// server for a permanent failure instead.
	hs := httptest.NewServer(nil) // 404 on every path
	defer hs.Close()
	err := cmdCollect([]string{"-url", hs.URL})
	if err == nil {
		t.Error("collect against 404 server succeeded")
	}
}

// TestCollectMaxIsExact: -max N folds exactly the first N tweets of a
// longer stream at any worker count. The stream holds in-context tweets
// only, so Table I's total counts every folded tweet, and the report
// must equal a collection of exactly those N tweets.
func TestCollectMaxIsExact(t *testing.T) {
	const max = 300
	ex := text.NewExtractor()
	var stream []twitter.Tweet
	for _, tw := range durableCorpus() {
		if ex.Extract(tw.Text).InContext() {
			stream = append(stream, tw)
		}
	}
	if len(stream) < 3*max {
		t.Fatalf("corpus has %d in-context tweets, want at least %d", len(stream), 3*max)
	}
	run := func(tweets []twitter.Tweet, extra ...string) string {
		srv := httptest.NewServer(twitter.NewReplayServer(tweets, twitter.ReplayConfig{}).Handler())
		defer srv.Close()
		return statsSection(t, captureStdout(t, func() error {
			return cmdCollect(collectArgs(srv.URL, extra...))
		}))
	}
	want := run(stream[:max])
	if !strings.Contains(want, fmt.Sprintf("%-28s %d\n", "Tweets collected (total)", max)) {
		t.Fatalf("reference run did not fold %d tweets:\n%s", max, want)
	}
	for _, workers := range []string{"1", "4"} {
		if got := run(stream, "-max", fmt.Sprint(max), "-workers", workers); got != want {
			t.Errorf("-max %d -workers %s:\n%s\nwant:\n%s", max, workers, got, want)
		}
	}
}

// TestCollectCheckpointsWhileIdle: a stream that delivers N tweets and
// then goes quiet must still see them saved on the -checkpoint-every
// schedule, with no progress ticks to lean on, before the stream ends.
func TestCollectCheckpointsWhileIdle(t *testing.T) {
	const n = 300
	ex := text.NewExtractor()
	var burst []byte
	lines := 0
	for _, tw := range durableCorpus() {
		if lines == n {
			break
		}
		if !ex.Extract(tw.Text).InContext() {
			continue
		}
		lines++
		var err error
		if burst, err = twitter.AppendTweet(burst, &tw); err != nil {
			t.Fatal(err)
		}
		burst = append(burst, '\n')
	}
	// The first connection gets the burst and is then held open and
	// silent until release; later ones are told the stream has ended.
	release := make(chan struct{})
	var once sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc(twitter.FilterPath, func(w http.ResponseWriter, r *http.Request) {
		first := false
		once.Do(func() { first = true })
		if !first {
			select {
			case <-release:
				http.Error(w, "stream has ended", http.StatusGone)
			case <-r.Context().Done():
			}
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write(burst)
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	ckpt := filepath.Join(t.TempDir(), "idle.ckpt")
	saved := make(chan int, 1)
	go func() {
		defer close(release)
		folded := -1
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if d, err := pipeline.LoadCheckpoint(ckpt); err == nil {
				if folded = d.TotalCollected(); folded == n {
					break
				}
			}
		}
		saved <- folded
	}()
	captureStdout(t, func() error {
		return cmdCollect(collectArgs(hs.URL, "-stall-timeout", "30s",
			"-checkpoint", ckpt, "-checkpoint-every", "100ms", "-progress-every", "0"))
	})
	if got := <-saved; got != n {
		t.Errorf("checkpoint held %d tweets while the stream idled, want all %d", got, n)
	}
}
