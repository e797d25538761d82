package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// fastClient is a stream client whose stall watchdog and backoffs suit a
// replay injecting 10 ms stalls and Retry-Afters.
func fastClient(base string) *twitter.StreamClient {
	return &twitter.StreamClient{
		BaseURL: base, StallTimeout: time.Second,
		InitialBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		RateLimitBackoff: time.Millisecond, MaxRateLimitBackoff: 10 * time.Millisecond,
	}
}

// TestReplayDeliversEveryMatchingTweet serves a generated corpus through
// the command's one construction path, clean and with faults on. Both
// runs must deliver every matching tweet exactly once, in corpus order,
// and only the run with faults on may inject any.
func TestReplayDeliversEveryMatchingTweet(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "corpus.ndjson")
	if err := cmdGenerate([]string{"-scale", "0.002", "-seed", "1", "-out", corpus}); err != nil {
		t.Fatal(err)
	}
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", chaos), func(t *testing.T) {
			args := []string{"-in", corpus, "-stall", "10ms", "-retry-after", "10ms"}
			if chaos {
				args = append(args, "-fault-rate", "0.05", "-ratelimit", "0.2", "-servererr", "0.2")
			}
			r, err := newReplayer(args)
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(r.rs.Handler())
			defer hs.Close()

			filter := twitter.NewTrackFilter(organ.TrackTerms())
			var want []int64
			for i := range r.tweets {
				if filter.Matches(r.tweets[i].Text) {
					want = append(want, r.tweets[i].ID)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			client := fastClient(hs.URL)
			out := make(chan twitter.Tweet, 64)
			errc := make(chan error, 1)
			go func() { errc <- client.Filter(ctx, organ.TrackTerms(), out) }()
			var got []int64
			for tw := range out {
				got = append(got, tw.ID)
			}
			if err := <-errc; err != nil {
				t.Fatalf("client: %v", err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("delivered %d tweets, want the %d matching ones in corpus order", len(got), len(want))
			}
			st := r.rs.Stats()
			injected := st.Disconnects + st.Stalls + st.Malformed + st.Oversized + st.Deletes + st.RateLimited + st.ServerError
			if chaos != (injected > 0) {
				t.Errorf("chaos=%v run injected %d faults", chaos, injected)
			}
		})
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

// TestReplayWithFaultsStopsGracefullyOnSIGTERM: a replay with faults on
// must also shut its server down on SIGTERM and return nil, and log one
// `replay finished` record whose counts are the server's own.
func TestReplayWithFaultsStopsGracefullyOnSIGTERM(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "corpus.ndjson")
	if err := cmdGenerate([]string{"-scale", "0.002", "-out", corpus}); err != nil {
		t.Fatal(err)
	}
	addr := freeAddr(t)

	// replay logs to os.Stderr as it is when the command starts.
	logs := &lockedBuffer{}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = pw
	copied := make(chan struct{})
	go func() {
		defer close(copied)
		_, _ = io.Copy(logs, pr)
	}()
	r, err := newReplayer([]string{
		"-in", corpus, "-addr", addr, "-rate", "500", "-loop",
		"-fault-rate", "0.05", "-stall", "10ms", "-ratelimit", "0.1",
		"-servererr", "0.1", "-retry-after", "10ms",
	})
	os.Stderr = stderr
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.run() }()

	// Read the stream for a while, so the record has faults to count.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := fastClient("http://" + addr)
	out := make(chan twitter.Tweet, 64)
	go func() { _ = client.Filter(ctx, organ.TrackTerms(), out) }()
	for n := 0; n < 100; n++ {
		select {
		case <-out:
		case <-time.After(10 * time.Second):
			t.Fatalf("replay delivered %d tweets in 10 s", n)
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
	cancel()
	for range out { // the client closes out once it has returned
	}
	pw.Close()
	<-copied

	var records []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, `msg="replay finished"`) {
			records = append(records, line)
		}
	}
	if len(records) != 1 {
		t.Fatalf("logged %d replay finished records, want 1:\n%s", len(records), logs.String())
	}
	st := r.rs.Stats()
	if st.Delivered < 100 || st.Disconnects+st.Stalls+st.Malformed+st.Oversized+st.Deletes+st.RateLimited+st.ServerError == 0 {
		t.Errorf("replay stats %+v: want at least 100 delivered and some injected faults", st)
	}
	for key, want := range map[string]int64{
		"connections": st.Connections, "delivered": st.Delivered,
		"disconnects": st.Disconnects, "stalls": st.Stalls,
		"malformed": st.Malformed, "oversized": st.Oversized, "deletes": st.Deletes,
		"rate_limited": st.RateLimited, "server_errors": st.ServerError,
	} {
		if field := fmt.Sprintf(" %s=%d", key, want); !strings.Contains(records[0], field) {
			t.Errorf("replay finished record lacks%s:\n%s", field, records[0])
		}
	}
}
