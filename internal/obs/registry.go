// Package obs is the operational-telemetry layer of the collector: a
// concurrent metrics registry with Prometheus text-format exposition, an
// HTTP telemetry server (/metrics, /healthz, /debug/pprof, /debug/vars),
// and component-tagged structured logging on log/slog.
//
// The paper's sensor collected for 385 days; a run that long is only
// trustworthy when ingest rate, geocode resolution, and drop causes are
// continuously measurable. Everything here is stdlib-only so the
// collector stays dependency-free.
//
// The registry supports counters, gauges, and histograms, each in plain
// and labeled (vec) form, plus function-backed instruments whose value is
// read at scrape time. All instruments are safe for concurrent use; the
// hot path (Inc/Add/Observe) is lock-free after the first registration.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a metric family.
type Kind int

// Metric family kinds, matching the Prometheus exposition TYPE keywords.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families and renders them in the Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with all its labeled children.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string  // label names; nil for a plain (unlabeled) metric
	buckets []float64 // histogram upper bounds (sorted, without +Inf)

	mu     sync.RWMutex
	series map[string]*series // keyed by joined label values
}

// series is one (labelset, value) pair of a family.
type series struct {
	labelValues []string
	val         atomicFloat    // counter / gauge value
	fn          func() float64 // when set, read at scrape time instead of val

	// Histogram state: per-bucket counts (non-cumulative; cumulated at
	// exposition), plus sum and count of observations.
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64

	// exemplar pins the most recent traced observation to the series —
	// the pivot from "this histogram looks slow" to "show me one slow
	// trace". Last-write-wins via one atomic pointer store.
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar links one observed value to the trace that produced it.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

// atomicFloat is a float64 with atomic add/store/load.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// register returns the family for name, creating it on first use. A name
// re-registered with a different kind, label set, or bucket layout is a
// programming error and panics.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
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

func equalFloats(a, b []float64) bool {
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

// child returns the series for the given label values, creating it on
// first use.
func (f *family) child(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets)+1) // +1 for +Inf
	}
	f.series[key] = s
	return s
}

// ---- Counter ----

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if v > 0 {
		c.s.val.Add(v)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.s.val.Load() }

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.register(name, help, KindCounter, nil, nil).child(nil)}
}

// CounterFunc registers a counter whose value is produced by fn at scrape
// time — the bridge for components that already keep their own atomic
// counters (e.g. the stream client's lifetime stats). Re-registering the
// same name replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, KindCounter, nil, nil).child(nil).fn = fn
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (order matches the
// label names given at registration).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{v.f.child(labelValues)}
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labelNames, nil)}
}

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.val.Store(v) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { g.s.val.Add(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.s.val.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.s.val.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.s.val.Load() }

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.register(name, help, KindGauge, nil, nil).child(nil)}
}

// GaugeFunc registers a gauge whose value is produced by fn at scrape
// time. Re-registering the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, KindGauge, nil, nil).child(nil).fn = fn
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{v.f.child(labelValues)}
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, labelNames, nil)}
}

// ---- Histogram ----

// Histogram samples observations into configurable buckets; quantiles are
// derivable from the cumulative bucket counts at query time.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Buckets are sorted; a linear scan beats binary search for the
	// ~10-bucket layouts used here.
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.s.counts[i].Add(1)
	h.s.sum.Add(v)
	h.s.count.Add(1)
}

// Since records the seconds elapsed from t to now — the idiom for stage
// latency instrumentation.
func (h *Histogram) Since(t time.Time) { h.Observe(time.Since(t).Seconds()) }

// ObserveExemplar records one sample like Observe and, when traceID is
// non-empty, additionally pins it as the series' exemplar. Call sites on
// a sampled-tracing path pass the trace ID of the current trace (or ""
// for unsampled work, which degrades to a plain Observe).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID != "" {
		h.s.exemplar.Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
	}
}

// Count returns how many samples have been observed.
func (h *Histogram) Count() uint64 { return h.s.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.s.sum.Load() }

// DefBuckets is the default latency layout (seconds): 100µs .. ~10s.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ExpBuckets returns n buckets starting at start, each factor× the last.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

func (r *Registry) histogramFamily(name, help string, buckets []float64) *family {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	sorted := append([]float64(nil), buckets...)
	sort.Float64s(sorted)
	return r.register(name, help, KindHistogram, nil, sorted)
}

// Histogram registers (or fetches) an unlabeled histogram. A nil or empty
// bucket slice uses DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.histogramFamily(name, help, buckets)
	return &Histogram{s: f.child(nil), buckets: f.buckets}
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.child(labelValues), buckets: v.f.buckets}
}

// HistogramVec registers (or fetches) a labeled histogram family. A nil
// or empty bucket slice uses DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	sorted := append([]float64(nil), buckets...)
	sort.Float64s(sorted)
	return &HistogramVec{r.register(name, help, KindHistogram, labelNames, sorted)}
}
