package twitter

import (
	"context"
	"errors"
	"time"

	"donorsense/internal/obs"
)

// StreamMetrics bridges a StreamClient into an obs.Registry: the client's
// lifetime counters become scrape-time counter funcs (one source of truth
// — the same Snapshot the tests and exit summary read), and the
// OnStateChange event stream drives the connection-state gauge, the
// per-cause disconnect counter, and the backoff-wait histogram.
type StreamMetrics struct {
	connected   *obs.Gauge
	disconnects *obs.CounterVec
	backoff     *obs.Histogram
}

// NewStreamMetrics registers the stream metric families. Call Instrument
// to attach a client; the families are registered eagerly so /metrics
// shows the full stream schema from the first scrape.
func NewStreamMetrics(reg *obs.Registry) *StreamMetrics {
	return &StreamMetrics{
		connected: reg.Gauge("donorsense_stream_connected",
			"Whether the stream connection is currently established (1) or down (0)."),
		disconnects: reg.CounterVec("donorsense_stream_disconnects_by_cause_total",
			"Established connections that ended, by cause.", "cause"),
		backoff: reg.Histogram("donorsense_stream_backoff_wait_seconds",
			"Reconnect backoff waits the client slept before redialing.", nil),
	}
}

// disconnectCause classifies the error an established connection ended
// with. The cause set is closed: dashboards can sum over it.
func disconnectCause(err error) string {
	switch {
	case err == nil:
		return "eof"
	case errors.Is(err, errStalled):
		return "stall"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	default:
		return "read_error"
	}
}

// Instrument wires the client's counters and lifecycle hooks into the
// registry the metrics were created on. It chains any OnStateChange
// handler already installed. Intended for the one-client-per-process
// collector; instrumenting a second client onto the same registry
// redirects the counter funcs to the newest client.
func (m *StreamMetrics) Instrument(reg *obs.Registry, c *StreamClient) {
	snap := func(field func(StreamStats) int64) func() float64 {
		return func() float64 { return float64(field(c.Snapshot())) }
	}
	reg.CounterFunc("donorsense_stream_connects_total",
		"Connections established (HTTP 200).", snap(func(s StreamStats) int64 { return s.Connects }))
	reg.CounterFunc("donorsense_stream_disconnects_total",
		"Established connections that ended (any cause).", snap(func(s StreamStats) int64 { return s.Disconnects }))
	reg.CounterFunc("donorsense_stream_retries_total",
		"Backoff waits before reconnecting.", snap(func(s StreamStats) int64 { return s.Retries }))
	reg.CounterFunc("donorsense_stream_rate_limits_total",
		"420/429 rate-limit responses received.", snap(func(s StreamStats) int64 { return s.RateLimits }))
	reg.CounterFunc("donorsense_stream_stalls_total",
		"Connections torn down by the stall watchdog.", snap(func(s StreamStats) int64 { return s.Stalls }))
	reg.CounterFunc("donorsense_stream_skipped_lines_total",
		"Oversized stream lines discarded.", snap(func(s StreamStats) int64 { return s.SkippedLines }))
	reg.CounterFunc("donorsense_stream_malformed_lines_total",
		"Stream lines that failed to parse as tweet or delete notice.", snap(func(s StreamStats) int64 { return s.MalformedLines }))
	reg.CounterFunc("donorsense_stream_delete_notices_total",
		"Status-deletion control messages recognised and skipped.", snap(func(s StreamStats) int64 { return s.DeleteNotices }))
	reg.CounterFunc("donorsense_stream_tweets_total",
		"Tweets delivered to the collector.", snap(func(s StreamStats) int64 { return s.Tweets }))

	prev := c.OnStateChange
	c.OnStateChange = func(ev StreamEvent) {
		switch ev.Kind {
		case EventConnected:
			m.connected.Set(1)
		case EventDisconnected:
			m.connected.Set(0)
			m.disconnects.With(disconnectCause(ev.Err)).Inc()
		case EventBackoff:
			m.backoff.Observe(ev.Wait.Seconds())
		}
		if prev != nil {
			prev(ev)
		}
	}
}

// Connected reports the current connection-state gauge value.
func (m *StreamMetrics) Connected() bool { return m.connected.Value() == 1 }

// WireMetrics bridges wire-codec decoders into an obs.Registry: decode
// latency, decode failures by cause, and oversized NDJSON lines skipped
// by archive readers. One WireMetrics can observe any number of decoders
// and readers (the collector and replay share the families).
type WireMetrics struct {
	seconds   *obs.Histogram
	errors    *obs.CounterVec
	oversized *obs.Counter
}

// NewWireMetrics registers the wire codec metric families. The error
// causes are pre-registered so the full schema (and its zeroes) shows
// from the first scrape.
func NewWireMetrics(reg *obs.Registry) *WireMetrics {
	m := &WireMetrics{
		// Sub-microsecond decodes: buckets from 100ns to ~400µs.
		seconds: reg.Histogram("donorsense_wire_decode_seconds",
			"Wall time of one wire-codec tweet decode.", obs.ExpBuckets(1e-7, 2, 12)),
		errors: reg.CounterVec("donorsense_wire_decode_errors_total",
			"Tweet lines the wire codec rejected, by cause.", "cause"),
		oversized: reg.Counter("donorsense_wire_oversized_lines_total",
			"Oversized NDJSON archive lines skipped by readers."),
	}
	for _, cause := range []string{causeSyntax, causeType, causeCreatedAt} {
		m.errors.With(cause)
	}
	return m
}

// Observe chains the metrics onto a decoder's hooks, preserving any
// handlers already installed.
func (m *WireMetrics) Observe(d *Decoder) {
	prevDecode, prevError := d.OnDecode, d.OnError
	d.OnDecode = func(dur time.Duration) {
		m.seconds.Observe(dur.Seconds())
		if prevDecode != nil {
			prevDecode(dur)
		}
	}
	d.OnError = func(cause string) {
		m.errors.With(cause).Inc()
		if prevError != nil {
			prevError(cause)
		}
	}
}

// ObserveReader chains the metrics onto an archive reader's skip hook
// and its decoder.
func (m *WireMetrics) ObserveReader(nr *NDJSONReader) {
	if nr.Codec == nil {
		nr.Codec = NewDecoder()
	}
	m.Observe(nr.Codec)
	prev := nr.OnSkipped
	nr.OnSkipped = func() {
		m.oversized.Inc()
		if prev != nil {
			prev()
		}
	}
}
