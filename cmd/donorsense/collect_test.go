package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

func TestCollectAgainstLiveServer(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	b := twitter.NewBroadcaster()
	srv := twitter.NewStreamServer(b)
	srv.SubscriberBuffer = 1 << 16
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	go func() {
		// Wait for the collector to subscribe, then replay and close.
		deadline := time.Now().Add(5 * time.Second)
		for b.NumSubscribers() == 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		for _, tw := range corpus.Tweets {
			b.Publish(tw)
		}
		b.Close()
	}()

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
		srv := httptest.NewServer(twitter.NewChaosServer(tweets, twitter.ChaosConfig{}).Handler())
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
