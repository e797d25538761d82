// Package trace is the collector's third observability pillar, next to
// the metrics registry and structured logs: cheap sampled spans that
// attribute latency per tweet and per stage across the whole data path —
// stream read → wire decode → organ extraction → geocode → in-order fold
// → checkpoint save.
//
// The design is built for a hot path that must stay allocation-free when
// sampling is off:
//
//   - the sampling decision is one seeded-PRNG draw per stream line, and
//     an unsampled tweet costs downstream stages exactly one nil check;
//   - span and trace IDs come from the same seeded splitmix64 sequence,
//     so runs are reproducible under a fixed seed;
//   - spans start on the monotonic clock (time.Now's monotonic reading)
//     and record durations with time.Since, immune to wall-clock steps;
//   - completed spans land in a fixed-size lock-free ring buffer
//     (overwrite-oldest), exported over HTTP as /debug/traces;
//   - a span slower than the configured threshold additionally emits one
//     "wide event" slog line carrying the full span context, so slow
//     outliers survive even after the ring has wrapped.
//
// Everything is stdlib-only, matching the rest of internal/obs.
package trace

import (
	"log/slog"
	"strconv"
	"sync/atomic"
	"time"
)

// SpanContext identifies a sampled trace position: the trace it belongs
// to and the span that is the current parent. The zero value means "not
// sampled" and is what every unsampled tweet carries — downstream stages
// test Sampled() (a single compare) and skip all tracing work.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Sampled reports whether this context belongs to a sampled trace.
func (c SpanContext) Sampled() bool { return c.TraceID != 0 }

// TraceString returns the trace ID as fixed-width hex — the form used in
// exemplars, wide events, and the /debug/traces endpoint.
func (c SpanContext) TraceString() string { return formatID(c.TraceID) }

func formatID(id uint64) string {
	const hexDigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// maxAttrs bounds per-span annotations; the fixed array keeps a span a
// single allocation.
const maxAttrs = 8

// Span is one timed operation of a trace. A Span is created by a Tracer,
// annotated with SetAttr/SetInt, and finished with End, after which it is
// immutable and owned by the ring buffer. All methods are nil-receiver
// safe: an unsampled call site holds a nil *Span and pays only the nil
// check.
type Span struct {
	tracer *Tracer

	// Name is the stage label, e.g. "stream.read" or "ingest.fold".
	Name string
	// Ctx carries this span's trace ID and its own span ID (children
	// parent onto Ctx.SpanID).
	Ctx SpanContext
	// Parent is the parent span's ID within the same trace (0 = root).
	Parent uint64
	// Start is the span's start instant (monotonic). Duration is set by
	// End.
	Start    time.Time
	Duration time.Duration

	attrs  [maxAttrs]Attr
	nattrs int
}

// Context returns the span's context for parenting children; the zero
// context on a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.Ctx
}

// SetAttr annotates the span. No-op on nil spans or past the attr cap;
// must not be called after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Value: value}
	s.nattrs++
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(value, 10))
}

// Attrs returns the span's annotations.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs[:s.nattrs]
}

// End records the span's duration, publishes it to the tracer's ring
// buffer, and — when the span exceeded the slow threshold — emits one
// wide-event log line. The span must not be mutated afterwards. No-op on
// nil spans.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	t := s.tracer
	t.ring.put(s)
	if t.slow > 0 && s.Duration >= t.slow && t.logger != nil {
		// One "wide event": every span field on a single structured line,
		// so a slow outlier is fully diagnosable from logs alone even
		// after the ring has wrapped past it.
		args := make([]any, 0, 8+2*s.nattrs)
		args = append(args,
			"trace", s.Ctx.TraceString(),
			"span", formatID(s.Ctx.SpanID),
			"name", s.Name,
			"duration", s.Duration.String(),
		)
		for _, a := range s.Attrs() {
			args = append(args, a.Key, a.Value)
		}
		t.logger.Warn("slow span", args...)
	}
}

// Config configures a Tracer.
type Config struct {
	// SampleRate is the per-root-span sampling probability in [0, 1].
	// 0 disables tracing entirely (Sampled never fires); 1 samples every
	// tweet — the trace-smoke harness setting.
	SampleRate float64
	// Seed seeds the PRNG behind sampling decisions and span/trace IDs,
	// making both reproducible. 0 means 1.
	Seed uint64
	// RingSize is the completed-span ring capacity (default 4096).
	RingSize int
	// SlowSpan is the wide-event threshold: a span at least this slow is
	// logged as one structured line. 0 disables.
	SlowSpan time.Duration
	// Logger receives the wide events (nil disables them).
	Logger *slog.Logger
}

// Tracer creates sampled spans and owns the completed-span ring. All
// methods are safe for concurrent use; Sample and span creation are
// lock-free.
type Tracer struct {
	threshold uint64 // sample when a PRNG draw is below this
	state     atomic.Uint64
	ring      *Ring
	slow      time.Duration
	logger    *slog.Logger
	rate      float64
}

// New builds a tracer. A nil *Tracer is itself valid: every method
// degrades to a no-op, so call sites need no enabled-checks.
func New(cfg Config) *Tracer {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	size := cfg.RingSize
	if size <= 0 {
		size = 4096
	}
	t := &Tracer{
		ring:   NewRing(size),
		slow:   cfg.SlowSpan,
		logger: cfg.Logger,
		rate:   cfg.SampleRate,
	}
	t.state.Store(seed)
	switch {
	case cfg.SampleRate >= 1:
		t.threshold = ^uint64(0)
	case cfg.SampleRate <= 0:
		t.threshold = 0
	default:
		t.threshold = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	return t
}

// Ring returns the completed-span ring buffer (nil on a nil tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// SampleRate returns the configured sampling probability.
func (t *Tracer) SampleRate() float64 {
	if t == nil {
		return 0
	}
	return t.rate
}

// next draws the next value of the seeded splitmix64 sequence. Lock-free:
// the additive state update is a single atomic add, and the output mix is
// pure.
func (t *Tracer) next() uint64 {
	x := t.state.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// id draws a non-zero identifier (zero is reserved for "unsampled").
func (t *Tracer) id() uint64 {
	for {
		if v := t.next(); v != 0 {
			return v
		}
	}
}

// StartRoot makes the sampling decision for a new trace and, when it
// samples, returns the root span. The common (unsampled) case returns nil
// after exactly one PRNG draw; with SampleRate 0 or a nil tracer, not
// even that.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil || t.threshold == 0 {
		return nil
	}
	if t.threshold != ^uint64(0) && t.next() >= t.threshold {
		return nil
	}
	id := t.id()
	return &Span{
		tracer: t,
		Name:   name,
		Ctx:    SpanContext{TraceID: id, SpanID: id},
		Start:  time.Now(),
	}
}

// StartChild starts a span parented on ctx. Returns nil (free) when the
// parent is unsampled or the tracer is nil.
func (t *Tracer) StartChild(name string, parent SpanContext) *Span {
	if t == nil || !parent.Sampled() {
		return nil
	}
	return &Span{
		tracer: t,
		Name:   name,
		Ctx:    SpanContext{TraceID: parent.TraceID, SpanID: t.id()},
		Parent: parent.SpanID,
		Start:  time.Now(),
	}
}
