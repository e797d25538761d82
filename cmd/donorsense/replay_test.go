package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"donorsense/internal/organ"
	"donorsense/internal/twitter"
)

func TestReplayServesCorpus(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.ndjson")
	if err := cmdGenerate([]string{"-scale", "0.002", "-out", corpus}); err != nil {
		t.Fatal(err)
	}

	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() {
		done <- cmdReplay([]string{"-in", corpus, "-addr", addr})
	}()

	// Consume the replay with the stream client.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := &twitter.StreamClient{
		BaseURL:        "http://" + addr,
		InitialBackoff: 20 * time.Millisecond,
	}
	out := make(chan twitter.Tweet, 4096)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), out) }()

	got := 0
	for range out {
		got++
	}
	if err := <-errc; err != nil {
		t.Fatalf("client: %v", err)
	}
	if got == 0 {
		t.Fatal("replay delivered no tweets")
	}
	// The replay keeps serving (410 Gone) until interrupted; it must not
	// have failed meanwhile.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("replay exited with %v", err)
		}
	default:
		// still serving; fine
	}
}

// TestReplayUnpacedDeliversEveryTweetToSlowClient: an unpaced replay
// (-rate 0) to a client that does not read for its first second must
// still deliver every matching corpus tweet exactly once, in corpus
// order, and then answer 410 Gone.
func TestReplayUnpacedDeliversEveryTweetToSlowClient(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.ndjson")
	if err := cmdGenerate([]string{"-scale", "0.05", "-out", corpus}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(corpus)
	if err != nil {
		t.Fatal(err)
	}
	filter := twitter.NewTrackFilter(organ.TrackTerms())
	var want []int64
	err = (&twitter.NDJSONReader{}).Decode(f, func(tw *twitter.Tweet) error {
		if filter.Matches(tw.Text) {
			want = append(want, tw.ID)
		}
		return nil
	})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	go func() { _ = cmdReplay([]string{"-in", corpus, "-addr", addr, "-rate", "0"}) }()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	client := &twitter.StreamClient{BaseURL: "http://" + addr, InitialBackoff: 20 * time.Millisecond}
	out := make(chan twitter.Tweet)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), out) }()
	time.Sleep(time.Second) // slow at first: nothing is read yet
	var got []int64
	for tw := range out {
		got = append(got, tw.ID)
	}
	if err := <-errc; err != nil {
		t.Fatalf("client: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("slow client received %d tweets, want all %d matching", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tweet %d: id %d, want %d", i, got[i], want[i])
		}
	}
	resp, err := http.Get("http://" + addr + twitter.FilterPath + "?track=donor+kidney")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("status after the replay = %d, want 410 Gone", resp.StatusCode)
	}
}

func TestReplayMissingFile(t *testing.T) {
	if err := cmdReplay([]string{"-in", "/nonexistent.ndjson", "-addr", "127.0.0.1:0"}); err == nil {
		t.Error("missing corpus accepted")
	}
}

// TestReplayStopsGracefullyOnSIGTERM: a container stop sends SIGTERM,
// and replay must shut its server down and return nil, as on Ctrl-C.
func TestReplayStopsGracefullyOnSIGTERM(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "corpus.ndjson")
	if err := cmdGenerate([]string{"-scale", "0.002", "-out", corpus}); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)
	done := make(chan error, 1)
	go func() { done <- cmdReplay([]string{"-in", corpus, "-addr", addr}) }()
	// Signal only once the server listens: the handler is installed by then.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replay never started listening")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("replay returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay did not stop after SIGTERM")
	}
}
