package twitter

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ReplayServer serves a fixed corpus on the Stream API's filter endpoint
// in its wire format (chunked, newline-delimited JSON). With a zero
// ReplayConfig it is a clean replay; its fault knobs inject the failure
// modes a 385-day collector must survive — mid-stream disconnects,
// keep-alive-free stalls, truncated/malformed JSON lines, oversized
// (> 1 MiB) lines, interleaved delete notices, and HTTP 420/503
// responses carrying Retry-After headers.
//
// The server tracks a delivery cursor that only advances when a tweet
// has been written to a client, so a collector that reconnects after any
// fault resumes exactly where it left off and receives every matching
// tweet exactly once, however slowly it reads: a slow client slows the
// replay down rather than losing tweets. That property is what lets the
// chaos integration tests assert bit-identical statistics against a
// fault-free run. The cursor is shared, so concurrent clients split the
// corpus between them rather than each receiving a copy.
//
// When the corpus is exhausted the stream closes and subsequent connects
// receive 410 Gone, terminating a well-behaved client cleanly; with
// ReplayConfig.Loop the cursor wraps instead and the replay never ends.
type ReplayServer struct {
	cfg    ReplayConfig
	corpus []Tweet

	// mu is the delivery lock, held across each write so concurrent
	// connections cannot duplicate or skip a tweet; it guards rng, line
	// and writes to cursor.
	mu   sync.Mutex
	rng  *rand.Rand
	line []byte // reused encode buffer
	// cursor is the next corpus index to deliver. Remaining reads it
	// without the delivery lock, so it never waits behind a stalled
	// client.
	cursor atomic.Int64
	stats  replayCounters
}

// replayCounters back ReplayStats; atomics, so Stats never waits behind
// the delivery lock.
type replayCounters struct {
	connections, rateLimited, serverError                         atomic.Int64
	disconnects, stalls, malformed, oversized, deletes, delivered atomic.Int64
}

// ReplayConfig tunes the replay and its fault mix. The zero value
// injects nothing (a perfectly clean, lossless replay).
type ReplayConfig struct {
	// Seed makes the fault schedule reproducible.
	Seed uint64
	// FaultRate is the per-tweet probability of injecting a stream fault
	// (disconnect, stall, malformed line, oversized line, or delete
	// notice, chosen uniformly).
	FaultRate float64
	// StallDuration is how long a stall fault stays silent — no tweets,
	// no keep-alives — before dropping the connection (default 2s).
	// Point it above the client's StallTimeout to exercise stall
	// detection.
	StallDuration time.Duration
	// RateLimitRate is the per-connection probability of answering 420
	// (Enhance Your Calm) with a Retry-After header.
	RateLimitRate float64
	// ServerErrorRate is the per-connection probability of answering 503
	// with a Retry-After header.
	ServerErrorRate float64
	// RetryAfter is the Retry-After header value on 420/503 responses
	// (default 1s; the header is sent in whole seconds).
	RetryAfter time.Duration
	// OversizeBytes is the length of an injected oversized junk line
	// (default 2 MiB — past the client's 1 MiB line cap).
	OversizeBytes int
	// Rate, when positive, throttles delivery to this many tweets per
	// second.
	Rate float64
	// Loop wraps the cursor at the end of the corpus instead of closing
	// the stream, so the replay never ends. A connection whose filter
	// matches no corpus tweet is then held open and silent.
	Loop bool
}

// ReplayStats counts what the server actually injected.
type ReplayStats struct {
	Connections int64 // streaming connections accepted (HTTP 200)
	RateLimited int64 // connections answered 420
	ServerError int64 // connections answered 503
	Disconnects int64 // injected mid-stream disconnects
	Stalls      int64 // injected stalls
	Malformed   int64 // injected truncated/malformed lines
	Oversized   int64 // injected oversized lines
	Deletes     int64 // injected delete notices
	Delivered   int64 // real tweets written to clients
}

// chaos fault kinds, drawn uniformly when a fault fires.
const (
	chaosDisconnect = iota
	chaosStall
	chaosMalformed
	chaosOversized
	chaosDelete
	chaosKinds
)

// NewReplayServer returns a server replaying corpus with the given fault
// mix.
func NewReplayServer(corpus []Tweet, cfg ReplayConfig) *ReplayServer {
	if cfg.StallDuration <= 0 {
		cfg.StallDuration = 2 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.OversizeBytes <= 0 {
		cfg.OversizeBytes = 2 << 20
	}
	return &ReplayServer{
		cfg:    cfg,
		corpus: corpus,
		rng:    rand.New(rand.NewPCG(cfg.Seed, 0xc4a05)),
	}
}

// Handler returns an http.Handler serving FilterPath.
func (s *ReplayServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(FilterPath, s.serve)
	return mux
}

// Stats returns a snapshot of the delivery and injected-fault counters.
func (s *ReplayServer) Stats() ReplayStats {
	c := &s.stats
	return ReplayStats{
		Connections: c.connections.Load(),
		RateLimited: c.rateLimited.Load(),
		ServerError: c.serverError.Load(),
		Disconnects: c.disconnects.Load(),
		Stalls:      c.stalls.Load(),
		Malformed:   c.malformed.Load(),
		Oversized:   c.oversized.Load(),
		Deletes:     c.deletes.Load(),
		Delivered:   c.delivered.Load(),
	}
}

// Remaining returns how many corpus tweets the cursor has not yet passed
// in the current pass over the corpus.
func (s *ReplayServer) Remaining() int {
	return len(s.corpus) - int(s.cursor.Load())
}

// Reset rewinds the delivery cursor so the corpus replays from the start.
func (s *ReplayServer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cursor.Store(0)
}

// roll draws a uniform float under the lock-protected rng.
func (s *ReplayServer) roll() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}

func (s *ReplayServer) serve(w http.ResponseWriter, r *http.Request) {
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	filter := NewTrackFilter(r.Form.Get("track"))
	if filter.Empty() {
		// The real API answers 406 Not Acceptable for a filter with no
		// predicates.
		http.Error(w, "at least one predicate (track) is required", http.StatusNotAcceptable)
		return
	}
	if !s.cfg.Loop && s.Remaining() == 0 {
		// Corpus delivered in full: tell reconnecting clients to stop.
		http.Error(w, "stream has ended", http.StatusGone)
		return
	}

	// Connection-level faults: rate limiting and server errors, both
	// carrying Retry-After like the real API's 420 and 503 responses.
	retryAfter := fmt.Sprintf("%d", int(s.cfg.RetryAfter.Round(time.Second)/time.Second))
	if s.cfg.RateLimitRate > 0 && s.roll() < s.cfg.RateLimitRate {
		s.stats.rateLimited.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "Enhance Your Calm", 420)
		return
	}
	if s.cfg.ServerErrorRate > 0 && s.roll() < s.cfg.ServerErrorRate {
		s.stats.serverError.Add(1)
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "Service Unavailable", http.StatusServiceUnavailable)
		return
	}

	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Transfer-Encoding", "chunked")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.stats.connections.Add(1)

	var tick *time.Ticker
	if s.cfg.Rate > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / s.cfg.Rate))
		defer tick.Stop()
	}
	ctx := r.Context()
	for {
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return
			}
		} else if ctx.Err() != nil {
			return
		}
		switch s.deliverNext(w, flusher, filter) {
		case deliverOK:
		case deliverStall:
			// Go silent — no tweets, no keep-alive newlines — long enough
			// to trip a stall-aware client, then drop the connection.
			select {
			case <-time.After(s.cfg.StallDuration):
			case <-ctx.Done():
			}
			return
		case deliverIdle:
			// Nothing in the looped corpus matches: hold the connection
			// open and silent, like a filter no live tweet matches.
			<-ctx.Done()
			return
		case deliverClose:
			return
		}
	}
}

type deliverResult int

const (
	deliverOK deliverResult = iota
	deliverStall
	deliverIdle
	deliverClose
)

// deliverNext sends the next undelivered corpus tweet (possibly preceded
// by injected noise lines), advancing the cursor only after the tweet is
// on the wire. It holds the delivery lock across the write.
func (s *ReplayServer) deliverNext(w http.ResponseWriter, flusher http.Flusher, filter *TrackFilter) deliverResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Skip past corpus tweets the track filter rejects; they are consumed
	// (cursor advances) but never written, like the real filter endpoint.
	// With Loop the cursor wraps, and a full pass without a match idles.
	cur := int(s.cursor.Load())
	for scanned := 0; ; scanned++ {
		if cur == len(s.corpus) {
			if !s.cfg.Loop {
				s.cursor.Store(int64(cur))
				return deliverClose
			}
			cur = 0
		}
		if scanned == len(s.corpus) {
			s.cursor.Store(int64(cur))
			return deliverIdle
		}
		if filter.Matches(s.corpus[cur].Text) {
			break
		}
		cur++
	}
	s.cursor.Store(int64(cur))
	t := &s.corpus[cur]

	// Stream-level faults. Noise faults (malformed, oversized, delete)
	// inject an extra line and still deliver the real tweet, so no data
	// is lost; connection faults (disconnect, stall) fire before the
	// write, so the tweet is re-sent on the next connection.
	if s.cfg.FaultRate > 0 && s.rng.Float64() < s.cfg.FaultRate {
		switch s.rng.IntN(chaosKinds) {
		case chaosDisconnect:
			s.stats.disconnects.Add(1)
			return deliverClose
		case chaosStall:
			s.stats.stalls.Add(1)
			return deliverStall
		case chaosMalformed:
			s.stats.malformed.Add(1)
			// A truncated tweet payload: valid prefix, no closing brace.
			if _, err := w.Write([]byte(`{"id":1,"text":"truncated mid-fligh` + "\n")); err != nil {
				return deliverClose
			}
		case chaosOversized:
			s.stats.oversized.Add(1)
			junk := make([]byte, s.cfg.OversizeBytes)
			for i := range junk {
				junk[i] = 'x'
			}
			junk[len(junk)-1] = '\n'
			if _, err := w.Write(junk); err != nil {
				return deliverClose
			}
		case chaosDelete:
			s.stats.deletes.Add(1)
			// A delete notice for a status this corpus never contains, so
			// honoring it is a no-op and statistics stay comparable.
			notice := fmt.Sprintf(`{"delete":{"status":{"id":%d,"user_id":%d}}}`+"\n",
				int64(1)<<62+s.rng.Int64N(1<<30), s.rng.Int64N(1<<30))
			if _, err := w.Write([]byte(notice)); err != nil {
				return deliverClose
			}
		}
	}

	payload, err := AppendTweet(s.line[:0], t)
	if err != nil {
		// Undeliverable tweet (cannot happen with generated corpora):
		// drop it rather than wedging the stream.
		s.cursor.Store(int64(cur + 1))
		return deliverOK
	}
	payload = append(payload, '\n')
	s.line = payload // reuse the grown buffer next delivery
	if _, err := w.Write(payload); err != nil {
		return deliverClose // client went away; tweet stays undelivered
	}
	flusher.Flush()
	s.cursor.Store(int64(cur + 1))
	s.stats.delivered.Add(1)
	return deliverOK
}
