package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"donorsense/internal/organ"
	"donorsense/internal/twitter"
)

// feed is a pre-encoded NDJSON stream: line i is buf[offs[i]:offs[i+1]],
// newline included, exactly the bytes StreamServer would send for the
// tweet.
type feed struct {
	buf  []byte
	offs []int
}

func (f *feed) lines() int { return len(f.offs) - 1 }

// truncate keeps the first n lines.
func (f *feed) truncate(n int) {
	f.offs = f.offs[:n+1]
	f.buf = f.buf[:f.offs[n]]
}

// maxWrite caps one socket write, so the lines that fell due during a
// stall go out in pieces the client can start decoding at once.
const maxWrite = 256 << 10

// minGap is the shortest pause between two paced writes. Go's timers
// sleep at least about a millisecond anyway; batching to it keeps the
// generator to about a thousand writes a second at any rate.
const minGap = time.Millisecond

// pacer writes a feed on an open-loop schedule and records, for every
// line, the offset from origin at which the write carrying it began.
// Line i is due at start + i/rate, where start is the moment run begins.
type pacer struct {
	f      *feed
	rate   float64
	origin time.Time

	start atomic.Int64 // offset of the first write, set when run begins
	sent  []time.Duration
}

func newPacer(f *feed, rate float64, origin time.Time) *pacer {
	return &pacer{f: f, rate: rate, origin: origin, sent: make([]time.Duration, f.lines())}
}

// due returns the offset from origin at which line i is due.
func (p *pacer) due(i int) time.Duration {
	return time.Duration(p.start.Load()) + time.Duration(float64(i)*float64(time.Second)/p.rate)
}

// run writes every line to w, calling flush after each write. A write
// that blocks does not shift the schedule: lines that fell due meanwhile
// go out together in the next write, so a stalled consumer shows up as
// lateness rather than as a slower rate.
func (p *pacer) run(ctx context.Context, w io.Writer, flush func()) error {
	n := p.f.lines()
	p.start.Store(int64(time.Since(p.origin)))
	var last time.Duration
	for next := 0; next < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		now := time.Since(p.origin)
		if next > 0 && now < last+minGap {
			time.Sleep(last + minGap - now)
			continue
		}
		due := min(n, p.dueBy(now))
		if due <= next {
			time.Sleep(p.due(next) - now)
			continue
		}
		end := next + 1
		for end < due && p.f.offs[end+1]-p.f.offs[next] <= maxWrite {
			end++
		}
		for i := next; i < end; i++ {
			p.sent[i] = now
		}
		if _, err := w.Write(p.f.buf[p.f.offs[next]:p.f.offs[end]]); err != nil {
			return err
		}
		if flush != nil {
			flush()
		}
		last, next = now, end
	}
	return nil
}

// dueBy returns how many lines are due at offset now.
func (p *pacer) dueBy(now time.Duration) int {
	elapsed := now - time.Duration(p.start.Load())
	if elapsed < 0 {
		return 0
	}
	return int(elapsed.Seconds()*p.rate) + 1
}

// streamServer serves one pacer run on the Stream API filter endpoint.
// The first connection receives the feed and is then closed; every later
// connection is answered 410 Gone, which ends StreamClient.Filter
// cleanly once the feed is delivered.
type streamServer struct {
	srv    *http.Server
	url    string
	served atomic.Bool
	done   chan error
}

func startStream(p *pacer) (*streamServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("stream listen: %w", err)
	}
	s := &streamServer{url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	mux := http.NewServeMux()
	mux.HandleFunc(twitter.FilterPath, func(w http.ResponseWriter, r *http.Request) {
		if !s.served.CompareAndSwap(false, true) {
			http.Error(w, "stream has ended", http.StatusGone)
			return
		}
		flusher := w.(http.Flusher)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
		s.done <- p.run(r.Context(), w, flusher.Flush)
	})
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln)
	return s, nil
}

// wait returns the pacer's result once the feed has been written.
func (s *streamServer) wait(ctx context.Context) error {
	select {
	case err := <-s.done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("stream writer: %w", ctx.Err())
	}
}

// close shuts the server down and waits for its connections to end.
func (s *streamServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
}

// newStreamClient returns a collector client for the loopback stream:
// the paper's track filter, and a reconnect schedule fast enough that the
// 410 after the feed ends arrives within a millisecond or two.
func newStreamClient(url string) *twitter.StreamClient {
	return &twitter.StreamClient{
		BaseURL:        url,
		HTTPClient:     &http.Client{Transport: &http.Transport{DisableCompression: true}},
		InitialBackoff: time.Millisecond,
		MaxBackoff:     time.Millisecond,
		StallTimeout:   30 * time.Second,
		MaxConnects:    4,
	}
}

// tweetBuffer matches the collector's stream channel.
const tweetBuffer = 1024

// consume runs the client's Filter into a channel and returns the channel
// the collector should read, plus a function that waits for Filter to end
// and reports its error. When delivered is non-nil a tap between the two
// stamps each tweet's delivery offset from origin, in send order.
func consume(ctx context.Context, c *twitter.StreamClient, origin time.Time, delivered []time.Duration) (<-chan twitter.Tweet, func() error) {
	raw := make(chan twitter.Tweet, tweetBuffer)
	errc := make(chan error, 1)
	go func() { errc <- c.Filter(ctx, organ.TrackTerms(), raw) }()
	wait := func() error {
		defer c.HTTPClient.CloseIdleConnections()
		if err := <-errc; err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("stream client: %w", err)
		}
		return nil
	}
	if delivered == nil {
		return raw, wait
	}
	out := make(chan twitter.Tweet, tweetBuffer)
	go func() {
		defer close(out)
		i := 0
		for t := range raw {
			if i < len(delivered) {
				delivered[i] = time.Since(origin)
			}
			i++
			select {
			case out <- t:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, wait
}
