package twitter

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"donorsense/internal/obs/trace"
)

// StreamClient consumes a streaming filter endpoint, decoding
// newline-delimited JSON tweets and reconnecting on failure — the
// behaviour a long-lived collector (the paper's ran 385 days) needs.
//
// It implements the Stream API's documented failure contract:
//
//   - network errors and 5xx responses reconnect with exponential backoff
//     plus full jitter, starting at InitialBackoff and capped at
//     MaxBackoff;
//   - rate-limit responses (420/429) use a separate, much slower schedule
//     starting at RateLimitBackoff (default 60s) and doubling, and any
//     Retry-After header is honored as a lower bound on the wait;
//   - a connection silent for longer than StallTimeout (no tweets, no
//     keep-alive newlines) is torn down and re-established;
//   - a healthy connection (alive ≥ HealthyAfter or delivering ≥
//     HealthyTweets tweets) resets both backoff schedules, so a
//     collector that has run for days does not reconnect at MaxBackoff
//     after a single blip;
//   - lines longer than MaxLineBytes are skipped, not fatal.
type StreamClient struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7700".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// InitialBackoff is the first reconnect delay (default 250ms). Each
	// consecutive failure doubles it up to MaxBackoff (default 16s),
	// mirroring Twitter's documented reconnect schedule.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// RateLimitBackoff is the first delay after a 420/429 response
	// (default 60s, per the API's rate-limit guidance). Each consecutive
	// rate-limit doubles it up to MaxRateLimitBackoff (default 15m).
	RateLimitBackoff    time.Duration
	MaxRateLimitBackoff time.Duration
	// StallTimeout tears down a connection that has been silent — no
	// tweets and no keep-alive newlines — for this long (default 90s,
	// the API's documented stall window). Negative disables.
	StallTimeout time.Duration
	// MaxLineBytes bounds a single stream line (default 1 MiB). Longer
	// lines are discarded and counted, not treated as connection errors.
	MaxLineBytes int
	// HealthyAfter and HealthyTweets define a "healthy" connection: one
	// that stayed up at least HealthyAfter (default 30s) or delivered at
	// least HealthyTweets tweets (default 100). A healthy connection
	// resets both backoff schedules.
	HealthyAfter  time.Duration
	HealthyTweets int
	// MaxConnects, when positive, bounds the number of (re)connection
	// attempts; useful in tests. Zero means reconnect forever.
	MaxConnects int
	// OnStateChange, when set, is invoked (from the Filter goroutine)
	// with every connection lifecycle event — connects, disconnects,
	// backoff waits, rate limits, stalls, skipped lines.
	OnStateChange func(StreamEvent)
	// Codec is the wire decoder used to parse tweet lines (see
	// Decoder). Nil allocates a private one when Filter starts. Set it
	// to attach decode telemetry hooks; it must not be shared with any
	// other concurrent user while Filter runs.
	Codec *Decoder
	// Tracer, when set, samples stream lines for end-to-end tracing: a
	// sampled line gets a "stream.read" root span, a "wire.decode" child
	// around the codec, and the resulting context stamped onto the tweet
	// (Tweet.TraceCtx) so downstream pipeline stages extend the same
	// trace. Nil disables sampling at zero cost.
	Tracer *trace.Tracer

	stats streamCounters
	// jitter overrides the full-jitter draw in tests; nil means
	// rand.Float64.
	jitter func() float64
}

// StreamEventKind classifies a connection lifecycle event.
type StreamEventKind int

// Stream lifecycle events.
const (
	// EventConnected: a connection was established (HTTP 200).
	EventConnected StreamEventKind = iota
	// EventDisconnected: an established connection ended (any cause).
	EventDisconnected
	// EventBackoff: the client is waiting Event.Wait before reconnecting.
	EventBackoff
	// EventRateLimited: the server answered 420/429.
	EventRateLimited
	// EventStalled: the stall timer tore down a silent connection.
	EventStalled
	// EventLineSkipped: an oversized line was discarded.
	EventLineSkipped
)

// String returns the event kind name.
func (k StreamEventKind) String() string {
	switch k {
	case EventConnected:
		return "connected"
	case EventDisconnected:
		return "disconnected"
	case EventBackoff:
		return "backoff"
	case EventRateLimited:
		return "rate-limited"
	case EventStalled:
		return "stalled"
	case EventLineSkipped:
		return "line-skipped"
	}
	return "event(?)"
}

// StreamEvent is one connection lifecycle notification.
type StreamEvent struct {
	Kind StreamEventKind
	// Attempt is the 1-based connection attempt number.
	Attempt int
	// Wait is the upcoming delay (EventBackoff only).
	Wait time.Duration
	// Err is the triggering error, when there is one.
	Err error
}

// StreamStats is a snapshot of the client's lifetime counters. It is safe
// to call Snapshot from any goroutine while Filter runs — the API the
// tests, the collector's exit summary, and the telemetry layer all share.
type StreamStats struct {
	Connects       int64 // established connections (HTTP 200)
	Disconnects    int64 // established connections that ended
	Retries        int64 // backoff waits before reconnecting
	RateLimits     int64 // 420/429 responses
	Stalls         int64 // connections torn down by the stall timer
	SkippedLines   int64 // oversized lines discarded
	MalformedLines int64 // lines that failed to parse as tweet or delete
	DeleteNotices  int64 // delete control messages recognised and skipped
	Tweets         int64 // tweets delivered to the output channel
}

// streamCounters is the atomic backing store for StreamStats.
type streamCounters struct {
	connects, disconnects, retries, rateLimits, stalls  atomic.Int64
	skippedLines, malformedLines, deleteNotices, tweets atomic.Int64
}

// Snapshot returns a point-in-time copy of the client's lifetime
// counters.
func (c *StreamClient) Snapshot() StreamStats {
	return StreamStats{
		Connects:       c.stats.connects.Load(),
		Disconnects:    c.stats.disconnects.Load(),
		Retries:        c.stats.retries.Load(),
		RateLimits:     c.stats.rateLimits.Load(),
		Stalls:         c.stats.stalls.Load(),
		SkippedLines:   c.stats.skippedLines.Load(),
		MalformedLines: c.stats.malformedLines.Load(),
		DeleteNotices:  c.stats.deleteNotices.Load(),
		Tweets:         c.stats.tweets.Load(),
	}
}

func (c *StreamClient) emit(ev StreamEvent) {
	if c.OnStateChange != nil {
		c.OnStateChange(ev)
	}
}

// wireDelete mirrors the {"delete":{"status":{...}}} wire shape of the
// Stream API's status-deletion control message. The collection only
// ever adds, so a notice is counted and otherwise skipped.
type wireDelete struct {
	Delete struct {
		Status struct {
			ID int64 `json:"id"`
		} `json:"status"`
	} `json:"delete"`
}

// ErrTooManyReconnects is returned when MaxConnects is exhausted.
var ErrTooManyReconnects = errors.New("twitter: reconnect limit reached")

func (c *StreamClient) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *StreamClient) backoffBounds() (time.Duration, time.Duration) {
	ib, mb := c.InitialBackoff, c.MaxBackoff
	if ib <= 0 {
		ib = 250 * time.Millisecond
	}
	if mb <= 0 {
		mb = 16 * time.Second
	}
	return ib, mb
}

func (c *StreamClient) rateLimitBounds() (time.Duration, time.Duration) {
	ib, mb := c.RateLimitBackoff, c.MaxRateLimitBackoff
	if ib <= 0 {
		ib = 60 * time.Second
	}
	if mb <= 0 {
		mb = 15 * time.Minute
	}
	return ib, mb
}

func (c *StreamClient) stallTimeout() time.Duration {
	switch {
	case c.StallTimeout < 0:
		return 0 // disabled
	case c.StallTimeout == 0:
		return 90 * time.Second
	}
	return c.StallTimeout
}

func (c *StreamClient) maxLineBytes() int {
	if c.MaxLineBytes <= 0 {
		return 1 << 20
	}
	return c.MaxLineBytes
}

func (c *StreamClient) healthyBounds() (time.Duration, int) {
	ha, ht := c.HealthyAfter, c.HealthyTweets
	if ha <= 0 {
		ha = 30 * time.Second
	}
	if ht <= 0 {
		ht = 100
	}
	return ha, ht
}

// fullJitter draws a delay uniformly from [0, d] — the "full jitter"
// strategy that decorrelates reconnect storms across a fleet of clients.
func (c *StreamClient) fullJitter(d time.Duration) time.Duration {
	f := rand.Float64
	if c.jitter != nil {
		f = c.jitter
	}
	return time.Duration(f() * float64(d))
}

// Filter connects to the filter endpoint with the given track parameter
// and sends decoded tweets to out until ctx is cancelled, the server
// closes the stream and reconnects are exhausted, or a permanent error
// (4xx other than 420/429) occurs. It closes out on return.
func (c *StreamClient) Filter(ctx context.Context, track string, out chan<- Tweet) error {
	defer close(out)
	if err := ValidateTrack(track); err != nil {
		return err
	}
	if c.Codec == nil {
		c.Codec = NewDecoder()
	}
	endpoint := strings.TrimSuffix(c.BaseURL, "/") + FilterPath + "?track=" + url.QueryEscape(track)

	backoff, maxBackoff := c.backoffBounds()
	rlBackoff, maxRLBackoff := c.rateLimitBounds()
	healthyAfter, healthyTweets := c.healthyBounds()
	delay := backoff
	rlDelay := rlBackoff
	connects := 0
	for {
		if c.MaxConnects > 0 && connects >= c.MaxConnects {
			return ErrTooManyReconnects
		}
		connects++

		start := time.Now()
		delivered, err := c.streamOnce(ctx, endpoint, out)
		switch {
		case errors.Is(err, errStreamGone):
			// The server said the stream has ended for good.
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case isPermanent(err):
			return err
		}
		// A clean EOF (err == nil) is a disconnect like any other — the
		// real Stream API drops stalled or long-lived connections and
		// expects clients to come back — so fall through to reconnect.

		// A healthy connection proves the path works: reset both backoff
		// schedules so the next blip restarts the ladder from the bottom.
		if time.Since(start) >= healthyAfter || delivered >= int64(healthyTweets) {
			delay = backoff
			rlDelay = rlBackoff
		}

		// Pick the schedule: rate limits (420/429) escalate on their own,
		// much slower ladder; everything else uses the standard one.
		var wait, floor time.Duration
		var rl rateLimitError
		if errors.As(err, &rl) {
			c.stats.rateLimits.Add(1)
			c.emit(StreamEvent{Kind: EventRateLimited, Attempt: connects, Err: err})
			wait = c.fullJitter(rlDelay)
			floor = rl.retryAfter
			rlDelay = minDuration(rlDelay*2, maxRLBackoff)
		} else {
			wait = c.fullJitter(delay)
			var se serverError
			if errors.As(err, &se) {
				floor = se.retryAfter
			}
			delay = minDuration(delay*2, maxBackoff)
		}
		// Retry-After is a contract, not a hint: never reconnect sooner.
		if wait < floor {
			wait = floor
		}

		c.stats.retries.Add(1)
		c.emit(StreamEvent{Kind: EventBackoff, Attempt: connects, Wait: wait, Err: err})
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// errStreamGone signals the server reported 410: the stream has ended and
// reconnecting is pointless. The client treats this as clean termination.
var errStreamGone = errors.New("twitter: stream gone")

// errStalled marks a connection torn down by the stall timer.
var errStalled = errors.New("twitter: connection stalled")

// permanentError marks non-retryable failures (client errors).
type permanentError struct{ error }

func isPermanent(err error) bool {
	var pe permanentError
	return errors.As(err, &pe)
}

// rateLimitError marks a 420/429 response; retryAfter is the server's
// Retry-After header when present (zero otherwise).
type rateLimitError struct {
	status     int
	retryAfter time.Duration
}

func (e rateLimitError) Error() string {
	return fmt.Sprintf("twitter: rate limited (status %d, retry after %s)", e.status, e.retryAfter)
}

// serverError marks a 5xx response; retryAfter is the server's
// Retry-After header when present (zero otherwise).
type serverError struct {
	status     int
	retryAfter time.Duration
}

func (e serverError) Error() string {
	return fmt.Sprintf("twitter: stream status %d (retry after %s)", e.status, e.retryAfter)
}

// parseRetryAfter reads a Retry-After header as delay-seconds or an
// HTTP-date; zero when absent or unparseable.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// streamOnce performs one connection and returns how many tweets it
// delivered. A nil error means the server ended the stream cleanly; any
// error is either transient (retry) or permanent.
func (c *StreamClient) streamOnce(ctx context.Context, endpoint string, out chan<- Tweet) (delivered int64, err error) {
	// Per-connection context so the stall watchdog can tear down just
	// this connection without cancelling the whole collector.
	connCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	req, err := http.NewRequestWithContext(connCtx, http.MethodGet, endpoint, nil)
	if err != nil {
		return 0, permanentError{fmt.Errorf("twitter: build request: %w", err)}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, fmt.Errorf("twitter: connect: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		retryAfter := parseRetryAfter(resp.Header)
		switch {
		case resp.StatusCode == http.StatusGone:
			return 0, errStreamGone
		case resp.StatusCode == 420 || resp.StatusCode == http.StatusTooManyRequests:
			return 0, rateLimitError{status: resp.StatusCode, retryAfter: retryAfter}
		case resp.StatusCode >= 500:
			return 0, serverError{status: resp.StatusCode, retryAfter: retryAfter}
		case resp.StatusCode >= 400:
			return 0, permanentError{fmt.Errorf("twitter: stream status %d", resp.StatusCode)}
		}
		return 0, fmt.Errorf("twitter: stream status %d", resp.StatusCode)
	}

	c.stats.connects.Add(1)
	c.emit(StreamEvent{Kind: EventConnected})
	defer func() {
		c.stats.disconnects.Add(1)
		c.emit(StreamEvent{Kind: EventDisconnected, Err: err})
	}()

	// Stall watchdog: any byte of traffic (tweets, control messages,
	// keep-alive newlines) resets the timer; silence past the timeout
	// cancels the connection context, failing the blocked read below.
	var stalled atomic.Bool
	var watchdog *time.Timer
	if st := c.stallTimeout(); st > 0 {
		watchdog = time.AfterFunc(st, func() {
			stalled.Store(true)
			cancel()
		})
		defer watchdog.Stop()
	}

	br := bufio.NewReaderSize(resp.Body, 64*1024)
	maxLine := c.maxLineBytes()
	for {
		line, skipped, rerr := readLine(br, maxLine)
		if watchdog != nil {
			watchdog.Reset(c.stallTimeout())
		}
		if skipped {
			c.stats.skippedLines.Add(1)
			c.emit(StreamEvent{Kind: EventLineSkipped})
		}
		if len(line) > 0 && !skipped {
			if d, ok := c.consumeLine(connCtx, line, out); ok {
				delivered += d
			} else {
				return delivered, ctx.Err()
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				return delivered, nil
			}
			if stalled.Load() && ctx.Err() == nil {
				c.stats.stalls.Add(1)
				c.emit(StreamEvent{Kind: EventStalled})
				return delivered, errStalled
			}
			return delivered, fmt.Errorf("twitter: read stream: %w", rerr)
		}
	}
}

// consumeLine routes one non-empty stream line: delete notices to their
// counter, tweets to out, everything unparseable to the malformed
// counter. It reports delivered tweets and whether to keep reading
// (false only when the send was cancelled).
func (c *StreamClient) consumeLine(ctx context.Context, line []byte, out chan<- Tweet) (int64, bool) {
	if bytes.Contains(line, []byte(`"delete"`)) {
		var dn wireDelete
		if err := json.Unmarshal(line, &dn); err == nil && dn.Delete.Status.ID != 0 {
			c.stats.deleteNotices.Add(1)
			return 0, true
		}
	}
	// Sampling decision for the whole trace happens here, once per tweet
	// line: one PRNG draw. Unsampled lines hold a nil root span and every
	// tracing statement below degrades to a nil check.
	root := c.Tracer.StartRoot("stream.read")
	root.SetInt("line_bytes", int64(len(line)))

	dec := c.Tracer.StartChild("wire.decode", root.Context())
	var t Tweet
	err := c.Codec.Decode(line, &t)
	dec.End()
	if err != nil {
		// A malformed line is a data problem, not a connection problem;
		// skip it the way a robust collector must.
		c.stats.malformedLines.Add(1)
		root.SetAttr("outcome", "malformed")
		root.End()
		return 0, true
	}
	if root != nil {
		t.TraceCtx = root.Context()
		root.SetInt("tweet_id", t.ID)
	}
	select {
	case out <- t:
		c.stats.tweets.Add(1)
		root.End()
		return 1, true
	case <-ctx.Done():
		root.SetAttr("outcome", "cancelled")
		root.End()
		return 0, false
	}
}

// readLine reads one newline-terminated line from br, enforcing the size
// cap: a line longer than max is discarded to its terminating newline and
// reported as skipped rather than failing the connection (the fragility
// bufio.Scanner's ErrTooLong has). The returned slice is valid until the
// next read. A final unterminated fragment at EOF is returned as a line.
func readLine(br *bufio.Reader, max int) (line []byte, skipped bool, err error) {
	frag, err := br.ReadSlice('\n')
	if err == nil || err == io.EOF {
		if len(frag) > max+1 { // +1 for the newline itself
			return nil, true, err
		}
		return trimEOL(frag), false, err
	}
	if err != bufio.ErrBufferFull {
		return trimEOL(frag), false, err
	}
	// Line exceeds the reader's buffer: accumulate up to max, then switch
	// to discarding until the newline.
	var buf []byte
	if len(frag) > max {
		skipped = true
	} else {
		buf = append(buf, frag...)
	}
	for {
		frag, err = br.ReadSlice('\n')
		if !skipped {
			if len(buf)+len(frag) > max {
				skipped = true
				buf = nil
			} else {
				buf = append(buf, frag...)
			}
		}
		switch err {
		case nil, io.EOF:
			return trimEOL(buf), skipped, err
		case bufio.ErrBufferFull:
			continue
		default:
			return trimEOL(buf), skipped, err
		}
	}
}

// trimEOL strips a trailing newline (and carriage return) in place.
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}
