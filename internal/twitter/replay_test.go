package twitter

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// chaosCorpus builds a small corpus: 2 of every 3 tweets match the
// "donor kidney" track, the rest are off-topic noise.
func chaosCorpus(n int) []Tweet {
	base := time.Date(2015, 4, 1, 0, 0, 0, 0, time.UTC)
	tweets := make([]Tweet, n)
	for i := range tweets {
		text := fmt.Sprintf("be a kidney donor today — story %d", i)
		if i%3 == 2 {
			text = fmt.Sprintf("nothing to see here %d", i)
		}
		tweets[i] = Tweet{
			ID:        int64(i + 1),
			Text:      text,
			CreatedAt: base.Add(time.Duration(i) * time.Minute),
			User:      User{ID: int64(i%17 + 1), ScreenName: "u", Location: "Wichita, KS"},
		}
	}
	return tweets
}

// collectAll runs a hardened client against the server until the stream
// ends, returning the delivered tweet IDs in order.
func collectAll(t *testing.T, url string, client *StreamClient) []int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := make(chan Tweet, 64)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, "donor kidney", out) }()
	var ids []int64
	for tw := range out {
		ids = append(ids, tw.ID)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Filter: %v (collected %d)", err, len(ids))
	}
	return ids
}

func wantIDs(corpus []Tweet) []int64 {
	f := NewTrackFilter("donor kidney")
	var ids []int64
	for _, tw := range corpus {
		if f.Matches(tw.Text) {
			ids = append(ids, tw.ID)
		}
	}
	return ids
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestChaosServerCleanReplayDeliversExactlyOnce(t *testing.T) {
	corpus := chaosCorpus(300)
	cs := NewReplayServer(corpus, ReplayConfig{})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()

	client := &StreamClient{BaseURL: hs.URL, InitialBackoff: time.Millisecond}
	ids := collectAll(t, hs.URL, client)
	if want := wantIDs(corpus); !equalIDs(ids, want) {
		t.Errorf("clean replay delivered %d tweets, want %d, or order differs", len(ids), len(want))
	}
	if cs.Remaining() != 0 {
		t.Errorf("Remaining = %d after full replay", cs.Remaining())
	}
}

func TestChaosServerExactlyOnceUnderFaults(t *testing.T) {
	corpus := chaosCorpus(600)
	want := wantIDs(corpus)

	cs := NewReplayServer(corpus, ReplayConfig{
		Seed:            7,
		FaultRate:       0.05,
		StallDuration:   10 * time.Second, // client stall timer must fire first
		RateLimitRate:   0.25,
		ServerErrorRate: 0.25,
		// Sub-second Retry-After rounds to a "0" header: the floor is
		// still exercised end-to-end without slowing the test down.
		RetryAfter: 10 * time.Millisecond,
	})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()

	// The stall timeout is far below the 10 s injected stall, and long
	// enough that a scheduling delay under -race does not tear down a
	// connection whose tweets the server already counted as delivered.
	client := &StreamClient{
		BaseURL:          hs.URL,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       4 * time.Millisecond,
		RateLimitBackoff: time.Millisecond,
		StallTimeout:     500 * time.Millisecond,
		HealthyTweets:    20,
		jitter:           func() float64 { return 0.5 },
	}
	ids := collectAll(t, hs.URL, client)

	if !equalIDs(ids, want) {
		t.Fatalf("chaos replay delivered %d tweets, want %d (must be exactly-once, in order)", len(ids), len(want))
	}
	st := cs.Stats()
	if st.Disconnects+st.Stalls+st.Malformed+st.Oversized+st.Deletes == 0 {
		t.Error("chaos injected no stream faults; test exercised nothing")
	}
	clientStats := client.Snapshot()
	if clientStats.Connects < 2 {
		t.Errorf("client connected %d times; faults should force reconnects", clientStats.Connects)
	}
	if st.Malformed > 0 && clientStats.MalformedLines == 0 {
		t.Error("server injected malformed lines but client counted none")
	}
	if st.Oversized > 0 && clientStats.SkippedLines == 0 {
		t.Error("server injected oversized lines but client skipped none")
	}
	if st.Stalls > 0 && clientStats.Stalls == 0 {
		t.Error("server stalled but client's stall timer never fired")
	}
	if st.RateLimited > 0 && clientStats.RateLimits == 0 {
		t.Error("server rate-limited but client counted none")
	}
	t.Logf("chaos: %+v", st)
	t.Logf("client: %+v", clientStats)
}

func TestChaosServerDeleteNoticesSurfaced(t *testing.T) {
	corpus := chaosCorpus(200)
	// Only delete faults matter here, but the schedule injects stalls too.
	// The client's watchdog must fire on those (StallTimeout below
	// StallDuration) and never on a scheduling delay: a spurious teardown
	// drops tweets the server already counted as delivered. A 100 ms
	// watchdog lost tweets that way under a loaded race build; 500 ms
	// still fires well inside the 2 s stall.
	cs := NewReplayServer(corpus, ReplayConfig{Seed: 3, FaultRate: 0.5, StallDuration: 2 * time.Second})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()

	client := &StreamClient{
		BaseURL:          hs.URL,
		InitialBackoff:   time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		RateLimitBackoff: time.Millisecond,
		StallTimeout:     500 * time.Millisecond,
		jitter:           func() float64 { return 0 },
	}
	ids := collectAll(t, hs.URL, client)
	if want := wantIDs(corpus); !equalIDs(ids, want) {
		t.Errorf("delivered %d, want %d", len(ids), len(want))
	}
	st := cs.Stats()
	if st.Deletes == 0 {
		t.Skip("fault schedule injected no deletes at this seed")
	}
	if got := client.Snapshot().DeleteNotices; got != st.Deletes {
		t.Errorf("client counted %d delete notices, server injected %d", got, st.Deletes)
	}
}

func TestChaosServerGoneAfterExhaustion(t *testing.T) {
	corpus := chaosCorpus(30)
	cs := NewReplayServer(corpus, ReplayConfig{})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()

	client := &StreamClient{BaseURL: hs.URL, InitialBackoff: time.Millisecond}
	collectAll(t, hs.URL, client)

	resp, err := hs.Client().Get(hs.URL + FilterPath + "?track=donor+kidney")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 410 {
		t.Errorf("status after exhaustion = %d, want 410 Gone", resp.StatusCode)
	}

	// Reset rewinds for another full replay.
	cs.Reset()
	if cs.Remaining() != len(corpus) {
		t.Errorf("Remaining after Reset = %d, want %d", cs.Remaining(), len(corpus))
	}
}

func TestChaosServerRejectsEmptyTrack(t *testing.T) {
	cs := NewReplayServer(chaosCorpus(5), ReplayConfig{})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + FilterPath + "?track=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 406 {
		t.Errorf("status = %d, want 406", resp.StatusCode)
	}
}

func TestChaosServerRateLimitResponseShape(t *testing.T) {
	cs := NewReplayServer(chaosCorpus(5), ReplayConfig{RateLimitRate: 1, RetryAfter: 3 * time.Second})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()
	resp, err := hs.Client().Get(hs.URL + FilterPath + "?track=donor+kidney")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 420 {
		t.Errorf("status = %d, want 420", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
}

func TestChaosClientGivesUpCleanlyWhenCancelled(t *testing.T) {
	// Permanent rate limiting + a cancelled context must not wedge.
	cs := NewReplayServer(chaosCorpus(5), ReplayConfig{RateLimitRate: 1, RetryAfter: time.Second})
	hs := httptest.NewServer(cs.Handler())
	defer hs.Close()

	client := &StreamClient{BaseURL: hs.URL, RateLimitBackoff: time.Millisecond, jitter: func() float64 { return 0 }}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	out := make(chan Tweet, 1)
	err := client.Filter(ctx, "donor kidney", out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

// TestReplayServerLoopWraps: with Loop the cursor wraps at the end of
// the corpus, so the matching tweets repeat in corpus order and the
// stream never ends.
func TestReplayServerLoopWraps(t *testing.T) {
	corpus := chaosCorpus(9)
	hs := httptest.NewServer(NewReplayServer(corpus, ReplayConfig{Loop: true}).Handler())
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := &StreamClient{BaseURL: hs.URL, InitialBackoff: time.Millisecond}
	out := make(chan Tweet)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, "donor kidney", out) }()
	want := wantIDs(corpus)
	for i := 0; i < 3*len(want); i++ {
		select {
		case tw := <-out:
			if tw.ID != want[i%len(want)] {
				t.Fatalf("tweet %d: id %d, want %d", i, tw.ID, want[i%len(want)])
			}
		case err := <-errc:
			t.Fatalf("looping stream ended after %d tweets: %v", i, err)
		}
	}
	cancel()
	for range out {
	}
	<-errc
}

// TestReplayServerLoopIdlesWithoutMatch: a looping replay whose corpus
// holds no tweet the filter matches keeps the connection open and
// silent, and is not left scanning the corpus under the delivery lock.
func TestReplayServerLoopIdlesWithoutMatch(t *testing.T) {
	rs := NewReplayServer(chaosCorpus(9), ReplayConfig{Loop: true})
	hs := httptest.NewServer(rs.Handler())
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL+FilterPath+"?track=heart+lung", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	read := make(chan int, 1)
	go func() {
		n, _ := resp.Body.Read(make([]byte, 64))
		read <- n
	}()
	select {
	case n := <-read:
		t.Fatalf("idle connection ended or wrote %d bytes", n)
	case <-time.After(100 * time.Millisecond):
	}
	locked := make(chan struct{})
	go func() {
		rs.Reset() // takes the delivery lock
		close(locked)
	}()
	select {
	case <-locked:
	case <-time.After(time.Second):
		t.Fatal("delivery lock still held by the idle connection")
	}
	if st := rs.Stats(); st.Delivered != 0 {
		t.Errorf("delivered %d tweets, want none", st.Delivered)
	}
	cancel()
	if n := <-read; n != 0 {
		t.Errorf("idle connection wrote %d bytes", n)
	}
}

// TestReplayServerStatsDoNotWaitOnDelivery: a write blocked on a slow
// client holds the delivery lock, and a /metrics scrape reading Stats
// and Remaining must not queue behind it.
func TestReplayServerStatsDoNotWaitOnDelivery(t *testing.T) {
	rs := NewReplayServer(chaosCorpus(9), ReplayConfig{})
	rs.mu.Lock() // a delivery stuck in a blocking write
	defer rs.mu.Unlock()
	done := make(chan struct{})
	go func() {
		rs.Stats()
		rs.Remaining()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stats/Remaining blocked behind the delivery lock")
	}
}
