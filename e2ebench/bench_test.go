package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
	"donorsense/internal/twitter"
)

func TestQuantileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.50, 100}, {0.90, 180}, {0.99, 198}, {1, 200}, {0, 1}} {
		v, n := quantile(xs, tc.q)
		if v != tc.want || n != len(xs) {
			t.Errorf("quantile(q=%v) = %v, n=%d; want %v, n=%d", tc.q, v, n, tc.want, len(xs))
		}
	}
	if v, n := quantile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("quantile of no samples = %v, n=%d", v, n)
	}
	// p99 of 200 samples has one sample beyond it; p90 has twenty.
	if supported(200, 0.99) || !supported(200, 0.90) {
		t.Errorf("supported: p99 of 200 = %v, p90 of 200 = %v", supported(200, 0.99), supported(200, 0.90))
	}
}

// A run's lag must be indexed by send order: tweet i is due at due[i]
// whatever became of the tweets before it, and every sent tweet must be
// folded before any lag is computed.
func TestLagIndexedBySendOrder(t *testing.T) {
	const n = 10
	p := tweetPath{}
	for i := 0; i < n; i++ {
		due := time.Duration(i) * time.Millisecond
		p.due = append(p.due, due)
		p.sent = append(p.sent, due+100*time.Microsecond)
		p.delivered = append(p.delivered, due+300*time.Microsecond)
	}
	folds := []mark{{4, 5 * time.Millisecond}, {10, 11 * time.Millisecond}}
	var ok bool
	if p.folded, ok = expandMarks(n, folds); !ok {
		t.Fatal("marks covering every tweet reported short")
	}
	cycles := []cycle{
		{covered: 4, start: 6 * time.Millisecond, refreshed: 8 * time.Millisecond, topped: 9 * time.Millisecond, published: 10 * time.Millisecond},
		{covered: 10, start: 12 * time.Millisecond, refreshed: 15 * time.Millisecond, topped: 16 * time.Millisecond, published: 17 * time.Millisecond},
	}
	vis, covered := visibility(n, cycles)
	if !covered {
		t.Fatal("cycles covering every tweet reported short")
	}
	lags := visibleLags(p, cycles, vis)
	for i, lag := range lags {
		pub := cycles[0].published
		if i >= 4 {
			pub = cycles[1].published
		}
		if want := ms(pub - p.due[i]); lag != want {
			t.Errorf("tweet %d: lag %v ms, want %v", i, lag, want)
		}
		var sum time.Duration
		for _, s := range segments(p, cycles, vis, i) {
			sum += s
		}
		if ms(sum) != lag {
			t.Errorf("tweet %d: segments add up to %v ms, lag is %v", i, ms(sum), lag)
		}
	}
	if i := rankedTweet(lags, 0.5); lags[i] != sortedCopy(lags)[rankOf(n, 0.5)] {
		t.Errorf("rankedTweet picked tweet %d with lag %v", i, lags[i])
	}

	// A tweet that was sent but never folded leaves the marks short.
	if _, ok := expandMarks(n+1, folds); ok {
		t.Error("marks covering 10 of 11 sent tweets reported complete")
	}
	if _, ok := visibility(n+1, cycles); ok {
		t.Error("cycles covering 10 of 11 sent tweets reported complete")
	}
}

// stallWriter blocks once, on its second write, for stall.
type stallWriter struct {
	writes int
	stall  time.Duration
	stalls []time.Time // start and end of the stall
	buf    bytes.Buffer
}

func (w *stallWriter) Write(b []byte) (int, error) {
	w.writes++
	if w.writes == 2 {
		w.stalls = append(w.stalls, time.Now())
		time.Sleep(w.stall)
		w.stalls = append(w.stalls, time.Now())
	}
	return w.buf.Write(b)
}

func TestPacerKeepsScheduleWhenConsumerStalls(t *testing.T) {
	const n, rate = 4000, 10000.0 // 0.4 s of schedule
	f := testFeed(n)
	origin := time.Now()
	p := newPacer(f, rate, origin)
	w := &stallWriter{stall: 150 * time.Millisecond}
	if err := p.run(context.Background(), w, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.buf.Bytes(), f.buf) {
		t.Fatal("pacer did not write the feed verbatim")
	}
	// The stall delays the lines due during it, then the generator
	// catches up: the run ends on schedule, not a stall later.
	last := p.sent[n-1] - p.due(n-1)
	if last > 20*time.Millisecond {
		t.Errorf("last line %v late; the stall shifted the schedule", last)
	}
	stallEnd := w.stalls[1].Sub(origin)
	var worst time.Duration
	for i := 0; i < n; i++ {
		late := p.sent[i] - p.due(i)
		if late < 0 {
			t.Fatalf("line %d sent %v before it was due", i, -late)
		}
		worst = max(worst, late)
		if p.due(i) > stallEnd+5*time.Millisecond && late > 20*time.Millisecond {
			t.Errorf("line %d, due after the stall, went out %v late", i, late)
		}
	}
	if worst < 100*time.Millisecond {
		t.Errorf("worst lateness %v; a 150 ms stall should show as lateness", worst)
	}
}

// The harness path end to end on a small corpus: the writer's bytes go
// through StreamClient and CollectParallel into the same state a
// sequential Process of the decoded tweets builds.
func TestStreamFoldsEverySentTweet(t *testing.T) {
	f, err := encodeFeed(generate(3, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	n := f.lines()
	origin := time.Now()
	p := newPacer(f, 100000, origin)
	srv, err := startStream(p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	delivered := make([]time.Duration, n)
	in, wait := consume(ctx, newStreamClient(srv.url), origin, delivered)
	d := pipeline.NewDataset()
	var folds []mark
	folded := d.CollectParallel(ctx, in, pipeline.CollectOptions{OnFold: func(total int) bool {
		folds = append(folds, mark{total, time.Since(origin)})
		return true
	}})
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := srv.wait(ctx); err != nil {
		t.Fatal(err)
	}
	if folded != n {
		t.Fatalf("sent %d tweets, folded %d", n, folded)
	}
	times, ok := expandMarks(n, folds)
	if !ok {
		t.Fatal("fold marks do not cover every tweet")
	}
	for i := range times {
		if p.sent[i] > delivered[i] || delivered[i] > times[i] {
			t.Fatalf("tweet %d: sent %v, delivered %v, folded %v out of order", i, p.sent[i], delivered[i], times[i])
		}
	}
	ref := pipeline.NewDataset()
	if err := twitter.DecodeNDJSON(bytes.NewReader(f.buf), func(tw *twitter.Tweet) error {
		ref.Process(*tw)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, want := d.Stats(), ref.Stats()
	if !got.Start.Equal(want.Start) || !got.End.Equal(want.End) {
		t.Errorf("streamed span %v–%v, sequential %v–%v", got.Start, got.End, want.Start, want.End)
	}
	got.Start, got.End = want.Start, want.End
	if got != want {
		t.Errorf("streamed Table I %+v differs from sequential %+v", got, want)
	}
}

func TestCheckEnvelope(t *testing.T) {
	check := func(status int, etag, body string) (uint64, error) {
		seq, _, err := checkEnvelope(status, []byte(etag), []byte(body), nil)
		return seq, err
	}
	good := `{"seq":7,"epoch":3,"etag":"\"s7-e3\"","built":"x"}`
	if seq, err := check(200, `"s7-e3"`, good); err != nil || seq != 7 {
		t.Errorf("consistent body: seq %d, err %v", seq, err)
	}
	if _, err := check(200, `"s8-e3"`, good); err == nil {
		t.Error("body of seq 7 under the ETag of seq 8 passed")
	}
	if _, err := check(200, `"s7-e3"`, `{"seq":7,"epoch":4,"etag":"\"s7-e3\""}`); err == nil {
		t.Error("torn envelope passed")
	}
	if _, err := check(200, `"s7-e"`, good); err == nil {
		t.Error("malformed ETag passed")
	}
	if seq, err := check(304, `"s9-e1"`, ""); err != nil || seq != 9 {
		t.Errorf("304: seq %d, err %v", seq, err)
	}
	if _, err := check(503, `"s9-e1"`, ""); err == nil {
		t.Error("503 passed")
	}
}

// The query client against the real handler: every answer of the
// rotation, fixed and parameterized, chunked or not, passes the envelope
// check.
func TestQueriesAgainstHandler(t *testing.T) {
	d := pipeline.SynthDataset(2000, 1)
	e := report.NewEngine(d, engineConfig())
	a, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	pub := serve.NewPublisher()
	if _, err := pub.Publish(a, serve.Meta{Epoch: e.Epoch(), Refreshes: e.Refreshes(), Top: report.TopMentioners(d, topK)}); err != nil {
		t.Fatal(err)
	}
	api, err := startAPI(pub)
	if err != nil {
		t.Fatal(err)
	}
	defer api.close()
	stop := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() { close(stop) })
	q := runQueries(api.addr, stop)
	if q.failed() != 0 || q.answered < int64(len(serve.DefaultPaths)) {
		t.Fatalf("%d of %d queries failed (first: %s)", q.failed(), q.sent, q.firstErr)
	}
	if err := checkStats(api.url, a.Stats, pub.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := checkStats(api.url, d.Stats(), pub.Seq()+1); err == nil {
		t.Fatal("/api/stats check passed against the wrong publish")
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	for i := range names {
		if i < len(want) && names[i] != want[i] {
			t.Errorf("workloads %v, program runs %v", names, want)
			break
		}
	}
	check := func(kind string, got []metricDef, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(defs))
			return
		}
		for i := range defs {
			if got[i] != defs[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, got[i], defs[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// testFeed is n short NDJSON lines.
func testFeed(n int) *feed {
	f := &feed{offs: []int{0}}
	for i := 0; i < n; i++ {
		f.buf = append(f.buf, `{"id":1}`...)
		f.buf = append(f.buf, '\n')
		f.offs = append(f.offs, len(f.buf))
	}
	return f
}
