package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
	"donorsense/internal/serve"
)

// usage is a sample of process-wide counters; the difference of two
// samples describes the window between them.
type usage struct {
	cpu      time.Duration // user + system time of the process
	gcCycles uint64
	gcCPU    float64 // runtime estimate of GC CPU seconds
	allCPU   float64 // runtime estimate of all CPU seconds
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles: s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		allCPU:   s[2].Value.Float64(),
	}
}

// since returns the window from a to u.
func (u usage) since(a usage) usage {
	return usage{
		cpu:      u.cpu - a.cpu,
		gcCycles: u.gcCycles - a.gcCycles,
		gcCPU:    u.gcCPU - a.gcCPU,
		allCPU:   u.allCPU - a.allCPU,
	}
}

// record sets the process.* and runtime.* metrics for a window, and
// unaccounted as its CPU time minus the busy time the layers reported.
func (u usage) record(r *result, busy float64) {
	r.set("process.cpu_s", u.cpu.Seconds())
	r.set("runtime.gc_cycles", float64(u.gcCycles))
	if u.allCPU > 0 {
		r.set("runtime.gc_cpu_fraction", u.gcCPU/u.allCPU)
	}
	r.set("unaccounted", u.cpu.Seconds()-busy)
}

// settle runs a full collection before a timed repetition, so whether a
// collection lands inside it depends on the garbage it makes itself, not
// on what the previous one left behind.
func settle() { runtime.GC() }

// heapLiveMB is the heap retained after a full collection, in MiB. It
// also returns the freed inputs' memory to the OS at once, so the
// scavenger does not do it in the background of the phase that follows.
func heapLiveMB() float64 {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hooks are the program's own public instruments, attached for a traced
// run: the pipeline's stage histograms and geocode cache counters, and
// the wire decoder's busy time.
type hooks struct {
	reg *obs.Registry
}

func newHooks() *hooks { return &hooks{reg: obs.NewRegistry()} }

// value reads one exported series (histograms export _sum and _count).
func (h *hooks) value(key string) float64 {
	switch v := h.reg.Export()[key].(type) {
	case float64:
		return v
	case uint64:
		return float64(v)
	}
	return 0
}

func (h *hooks) extractS() float64 {
	return h.value("donorsense_pipeline_stage_seconds{stage=" + pipeline.StageExtract + "}_sum")
}

func (h *hooks) locateS() float64 {
	return h.value("donorsense_pipeline_stage_seconds{stage=" + pipeline.StageLocate + "}_sum")
}

func (h *hooks) decodeS() float64 { return h.value("donorsense_wire_decode_seconds_sum") }

// cacheHitRatio is the geocode memo's hits over lookups.
func (h *hooks) cacheHitRatio() float64 {
	hits := h.value("donorsense_pipeline_geocode_cache_hits_total")
	misses := h.value("donorsense_pipeline_geocode_cache_misses_total")
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// recordStore sets the userstore metrics from the collector's state.
func recordStore(r *result, d *pipeline.Dataset) {
	rows, bytes := d.StoreFootprint()
	r.set("userstore.rows", float64(rows))
	if rows > 0 {
		r.set("userstore.bytes_per_user", float64(bytes)/float64(rows))
	}
}

// recordQueries sets the query end-to-end metrics and, for a traced run,
// the serve layer's tallies.
func recordQueries(r *result, q *queryLoad, pub *serve.Publisher) {
	r.attempt(q.sent, q.failed())
	r.check(q.failed() == 0, "queries: %d of %d not answered 200/304 with a consistent envelope (first: %s)", q.failed(), q.sent, q.firstErr)
	p, blocks := blockQuantiles(q.latUS, queryBlock, 0.50, 0.90, 0.99)
	r.check(blocks > 0, "queries: %d answers, fewer than one block of %d", len(q.latUS), queryBlock)
	r.set("query_p50_us", p[0])
	r.set("query_p90_us", p[1])
	r.set("serve.query_us.p99", p[2])
	r.set("samples.queries", float64(len(q.latUS)))
	r.set("serve.query_per_s", float64(q.sent)/q.elapsed.Seconds())
	r.set("serve.query_failed", float64(q.failed()))
	st := pub.Stats()
	if hits := st.Hits + st.NotModified; hits+st.Misses() > 0 {
		r.set("serve.cache_hit_ratio", float64(hits)/float64(hits+st.Misses()))
	}
}

// queryBlock is how many consecutive answers one latency block holds:
// enough that a block's p99 has ten samples beyond it. The query
// percentiles are the medians over blocks, so one stray scheduling
// hiccup cannot set a run's tail. The end-to-end tail is p90: at 100k
// users a run's p99 moves with how often ingest bursts and the host's
// stolen time land on a query, and spread 14–29% over runs of the same
// code where p90 spread 5–7%; p99 stays in the traced breakdown.
const queryBlock = 1000

// blockQuantiles splits the samples, in answer order, into consecutive
// blocks of size and returns, for each q, the median over the whole
// blocks of each block's q-quantile, and the number of blocks.
func blockQuantiles(samples []float64, size int, qs ...float64) ([]float64, int) {
	per := make([][]float64, len(qs))
	for lo := 0; lo+size <= len(samples); lo += size {
		s := sortedCopy(samples[lo : lo+size])
		for i, q := range qs {
			v, _ := quantile(s, q)
			per[i] = append(per[i], v)
		}
	}
	meds := make([]float64, len(qs))
	for i := range qs {
		meds[i] = median(per[i])
	}
	return meds, len(per[0])
}
