// Command e2ebench is donorsense's end-to-end benchmark. It runs one
// workload in process, from a seeded input to served answers, times the
// program's public calls from outside, checks the outputs, counts the
// operations attempted and failed, and prints every metric by name with
// its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// program's own instruments are attached and the metrics are the
// per-layer breakdown. See README.md for the workloads and definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them (README.md defines each per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_tweets_per_s", "tweets/s"},
	{"visible_lag_p50_ms", "ms"},
	{"visible_lag_p90_ms", "ms"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"heap_live_mb", "MB"},
}

// perLayer is the traced breakdown.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"twitter.transit_ms.p50", "ms"},
		{"twitter.transit_ms.p90", "ms"},
		{"twitter.decode_s", "s"},
		{"twitter.delivered", "count"},
		{"twitter.skipped_lines", "count"},
		{"twitter.reconnects", "count"},
		{"gen.lateness_ms.p99", "ms"},
		{"text.extract_s", "s"},
		{"geo.locate_s", "s"},
		{"geo.cache_hit_ratio", "ratio"},
		{"pipeline.ingest_ms.p50", "ms"},
		{"pipeline.ingest_ms.p90", "ms"},
		{"pipeline.checkpoint_load_s", "s"},
		{"userstore.bytes_per_user", "B"},
		{"userstore.rows", "count"},
		{"report.cycle_ms.p50", "ms"},
		{"report.refresh_ms.p50", "ms"},
		{"report.refresh_ms.p90", "ms"},
		{"report.dirty_rows.p50", "count"},
		{"report.top_ms.p50", "ms"},
		{"report.refresh_wait_ms.p50", "ms"},
		{"report.first_refresh_s", "s"},
		{"serve.publish_ms.p50", "ms"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.query_per_s", "1/s"},
		{"serve.query_us.p99", "us"},
		{"serve.query_failed", "count"},
		{"process.cpu_s", "s"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"unaccounted", "s"},
	}
	for _, s := range segmentNames {
		defs = append(defs, metricDef{"lag.p50." + s + "_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"lag.p50.total_ms", "ms"},
		metricDef{"samples.lag_tweets", "count"},
		metricDef{"samples.refreshes", "count"},
		metricDef{"samples.queries", "count"},
		metricDef{"samples.reps", "count"},
	)
	// The end-to-end figures of the traced run itself: against an
	// untraced run of the same seed they give the tracing overhead.
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"traced." + m.name, m.unit})
	}
	return defs
}()

var units = func() map[string]string {
	u := make(map[string]string)
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			u[m.name] = m.unit
		}
	}
	return u
}()

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	notes     []string
}

func newResult() *result { return &result{correct: true, values: make(map[string]float64)} }

// set records a metric; the name must be declared above.
func (r *result) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("e2ebench: undeclared metric " + name)
	}
	r.values[name] = v
}

// attempt counts operations attempted and failed.
func (r *result) attempt(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		r.notes = append(r.notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory inside the checkout
}

var workloads = map[string]live{
	"live_1m":   {users: 1_000_000, rate: 20000},
	"live_100k": {users: 100_000, rate: 30000},
}

func main() {
	workload := flag.String("workload", "", "live_1m | live_100k")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "length of the timed window")
	trace := flag.Int("trace", 0, "1 attaches the program's instruments and reports the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := bench(*workload, w.run, config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func bench(workload string, run func(config, *result) error, cfg config) error {
	base := filepath.Join(".bench_build", "e2ebench-data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	r := newResult()
	if err := run(cfg, r); err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	list := endToEnd
	if cfg.trace {
		for _, m := range endToEnd {
			r.set("traced."+m.name, r.values[m.name])
		}
		list = perLayer
	}
	for _, m := range endToEnd {
		if r.values[m.name] <= 0 {
			return fmt.Errorf("%s: metric %s was not measured", workload, m.name)
		}
	}

	fmt.Printf("e2ebench workload=%s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d\n",
		workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	out := make(map[string]any, len(list))
	for _, m := range list {
		v := r.values[m.name]
		fmt.Printf("  %-32s %14.4f %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	fmt.Printf("  correct=%v attempted=%d failed=%d\n", r.correct, r.attempted, r.failed)
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(line)))
	return nil
}
