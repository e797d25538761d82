package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/organ"
	"donorsense/internal/twitter"
)

// TestChaosSummaryJSON pins the machine-readable exit line's schema so
// CI scripts parsing it don't silently break.
func TestChaosSummaryJSON(t *testing.T) {
	st := twitter.ReplayStats{
		Connections: 7, Delivered: 100, Disconnects: 3, Stalls: 2,
		Malformed: 4, Oversized: 1, Deletes: 5, RateLimited: 6, ServerError: 8,
	}
	line, err := chaosSummaryJSON(st, 9)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("summary not valid JSON: %v\n%s", err, line)
	}
	if got["event"] != "chaos_summary" {
		t.Errorf("event = %v, want chaos_summary", got["event"])
	}
	if got["delivered"] != 100.0 || got["connections"] != 7.0 || got["remaining"] != 9.0 {
		t.Errorf("top-level fields wrong: %s", line)
	}
	inj, ok := got["injected"].(map[string]any)
	if !ok {
		t.Fatalf("injected not an object: %s", line)
	}
	want := map[string]float64{
		"disconnects": 3, "stalls": 2, "malformed": 4, "oversized": 1,
		"deletes": 5, "rate_limited": 6, "server_errors": 8,
	}
	for k, v := range want {
		if inj[k] != v {
			t.Errorf("injected.%s = %v, want %g", k, inj[k], v)
		}
	}
}

// TestReplayDeliversEveryMatchingTweet serves a small corpus through the
// command's one construction path, clean and with -chaos. The fault
// flags are set in both runs but reach the server only with -chaos, and
// both runs must deliver every matching tweet exactly once, in order.
func TestReplayDeliversEveryMatchingTweet(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", chaos), func(t *testing.T) {
			o := options{
				scale: 0.002, seed: 1, chaos: chaos,
				faultRate: 0.05, stall: 10 * time.Millisecond, rateLimit: 0.2,
				serverErr: 0.2, retryAfter: 10 * time.Millisecond,
			}
			rs, tweets := newReplay(o, obs.NewRegistry())
			hs := httptest.NewServer(rs.Handler())
			defer hs.Close()

			filter := twitter.NewTrackFilter(organ.TrackTerms())
			var want []int64
			for i := range tweets {
				if filter.Matches(tweets[i].Text) {
					want = append(want, tweets[i].ID)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			client := &twitter.StreamClient{
				BaseURL: hs.URL, StallTimeout: time.Second,
				InitialBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
				RateLimitBackoff: time.Millisecond, MaxRateLimitBackoff: 10 * time.Millisecond,
			}
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
			st := rs.Stats()
			injected := st.Disconnects + st.Stalls + st.Malformed + st.Oversized + st.Deletes + st.RateLimited + st.ServerError
			if chaos != (injected > 0) {
				t.Errorf("chaos=%v run injected %d faults", chaos, injected)
			}
		})
	}
}

// TestChaosRunStopsGracefullyOnSIGTERM: a container stop sends SIGTERM,
// and a -chaos run must shut its server down, return nil and print its
// one chaos_summary line on stdout, as it does on Ctrl-C.
func TestChaosRunStopsGracefullyOnSIGTERM(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	o := options{
		addr: addr, scale: 0.002, seed: 1, rate: 500, chaos: true,
		faultRate: 0.01, stall: 10 * time.Millisecond, rateLimit: 0.02,
		serverErr: 0.02, retryAfter: 10 * time.Millisecond,
	}

	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	printed := make(chan string)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		printed <- buf.String()
	}()

	done := make(chan error, 1)
	go func() { done <- run(o) }()
	// Signal only once the server listens: the handler is installed by then.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("streamsim never started listening")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("streamsim did not stop after SIGTERM")
	}
	w.Close()
	out := <-printed
	if n := strings.Count(out, `"event":"chaos_summary"`); n != 1 {
		t.Errorf("stdout holds %d chaos_summary lines, want 1:\n%s", n, out)
	}
}
