package report

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/pipeline"
)

// The benchmark suite behind BENCH_incremental.{txt,json}: latency of
// one full-report refresh after a 10k-tweet delta lands on a large
// store, incremental engine versus from-scratch Analyze (archived as
// BENCH_incremental_before.*). Both sides run the same config — sweep
// off, k=12 — so the diff isolates the incremental machinery. The 1M
// benchmarks are baseline-only (minutes of wall clock); the CI gate
// reruns the 100k subset.

const benchDeltaTweets = 10_000

// benchEngineConfig mirrors the live collector's refresh config.
func benchEngineConfig() AnalysisConfig {
	cfg := DefaultAnalysisConfig()
	cfg.KUsers = 12
	cfg.SweepKs = nil
	cfg.SilhouetteSample = 0
	cfg.Workers = 0
	return cfg
}

// benchSetup fabricates the large store, folds a 5k-tweet warm-up
// prefix (so the delta's users are established), cold-builds the
// engine, and returns the closure that lands one 10k-tweet delta.
func benchSetup(b *testing.B, users int) (*pipeline.Dataset, *Engine, func()) {
	b.Helper()
	corpus := gen.Generate(gen.DefaultConfig(0.02))
	if len(corpus.Tweets) < benchDeltaTweets+5000 {
		b.Fatalf("generated corpus too small: %d tweets", len(corpus.Tweets))
	}
	d := pipeline.SynthDataset(users, 1)
	for _, tw := range corpus.Tweets[:5000] {
		d.Process(tw)
	}
	e := NewEngine(d, benchEngineConfig())
	if _, err := e.Refresh(); err != nil { // cold build
		b.Fatal(err)
	}
	deltaTweets := corpus.Tweets[5000 : 5000+benchDeltaTweets]
	applyDelta := func() {
		for _, tw := range deltaTweets {
			d.Process(tw)
		}
	}
	return d, e, applyDelta
}

func benchIncrementalRefresh(b *testing.B, users int) {
	_, e, applyDelta := benchSetup(b, users)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		applyDelta()
		b.StartTimer()
		if _, err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFromScratchAnalyze(b *testing.B, users int) {
	d, _, applyDelta := benchSetup(b, users)
	cfg := benchEngineConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		applyDelta()
		b.StartTimer()
		if _, err := Analyze(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchNewUsersDirty is the delta of one BenchmarkIncrementalRefreshNewUsers
// iteration, about what one refresh drains on the live_1m end-to-end
// workload.
const benchNewUsersDirty = 230

// benchIncrementalRefreshNewUsers times one refresh after a delta of
// about benchNewUsersDirty rows in which half the tweets come from users
// never seen before, so every iteration inserts rows into Û and its
// row-aligned columns. (The fixed 10k-tweet delta above re-folds the
// same tweets, so after the first iteration no user enters Û.)
func benchIncrementalRefreshNewUsers(b *testing.B, users int) {
	d, e, _ := benchSetup(b, users)
	foldDelta := newUsersDelta(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		foldDelta(benchNewUsersDirty)
		b.StartTimer()
		if _, err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// newUsersDelta returns a function that folds generated tweets into d
// until at least rows rows are dirty, every second tweet from a user
// never seen before.
func newUsersDelta(d *pipeline.Dataset) func(rows int) {
	pool := gen.Generate(gen.DefaultConfig(0.02)).Tweets[5000:]
	next, fresh := 0, int64(1)<<50
	return func(rows int) {
		for d.DirtyRows() < rows {
			tw := pool[next%len(pool)]
			if next++; next%2 == 0 {
				tw.User.ID = fresh
				fresh++
			}
			d.Process(tw)
		}
	}
}

// benchTopK is the number of top mentioners collect -serve (its
// -serve-top default) and the end-to-end benchmark rank every cycle.
const benchTopK = 250

// benchTopMentioners times TopMentioners(d, benchTopK) on a 1M-user
// store, after a delta of about 200 rows and one Refresh, as in one live
// cycle. With scan set, each call first drops the dataset's ranking, so
// it rebuilds with a column scan; otherwise it maintains the ranking.
func benchTopMentioners(b *testing.B, scan bool) {
	d, e, _ := benchSetup(b, 1_000_000)
	foldDelta := newUsersDelta(d)
	TopMentioners(d, benchTopK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		foldDelta(200)
		if _, err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
		if scan {
			*d.TopRanking() = pipeline.TopRanking{}
		}
		b.StartTimer()
		if top := TopMentioners(d, benchTopK); len(top) != benchTopK {
			b.Fatalf("ranked %d users, want %d", len(top), benchTopK)
		}
	}
}

// BenchmarkTopMentioners{Scan,Warm}1M are not gated; run them with
// go test -cpu 1 -run '^$' -bench 'TopMentioners(Scan|Warm)1M' -benchtime 200x ./internal/report/
func BenchmarkTopMentionersScan1M(b *testing.B) { benchTopMentioners(b, true) }
func BenchmarkTopMentionersWarm1M(b *testing.B) { benchTopMentioners(b, false) }

func BenchmarkIncrementalRefresh100k(b *testing.B) { benchIncrementalRefresh(b, 100_000) }
func BenchmarkFromScratchAnalyze100k(b *testing.B) { benchFromScratchAnalyze(b, 100_000) }
func BenchmarkIncrementalRefresh1M(b *testing.B)   { benchIncrementalRefresh(b, 1_000_000) }
func BenchmarkFromScratchAnalyze1M(b *testing.B)   { benchFromScratchAnalyze(b, 1_000_000) }
func BenchmarkIncrementalRefreshNewUsers100k(b *testing.B) {
	benchIncrementalRefreshNewUsers(b, 100_000)
}
func BenchmarkIncrementalRefreshNewUsers1M(b *testing.B) {
	benchIncrementalRefreshNewUsers(b, 1_000_000)
}

// benchRestart times a restart from a users-user checkpoint, split by
// stage: LoadCheckpoint (load_ms), NewEngine + RestoreWarm (restore_ms),
// the first Refresh (first_refresh_ms) and the first TopMentioners
// (top_ms). The checkpoint is what collect -serve leaves behind: a
// dataset refreshed and ranked by a live engine, saved with its warm
// state. Each iteration collects the previous one's garbage first.
func benchRestart(b *testing.B, users int) {
	d := pipeline.SynthDataset(users, 1)
	e := NewEngine(d, benchEngineConfig())
	if _, err := e.Refresh(); err != nil {
		b.Fatal(err)
	}
	TopMentioners(d, benchTopK)
	warm, err := e.MarshalWarm()
	if err != nil {
		b.Fatal(err)
	}
	d.SetAnalyticsState(warm)
	path := filepath.Join(b.TempDir(), "restart.ckpt")
	if err := d.SaveCheckpoint(path); err != nil {
		b.Fatal(err)
	}
	d, e = nil, nil
	var load, restore, first, top time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		t0 := time.Now()
		d, err := pipeline.LoadCheckpoint(path)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		e := NewEngine(d, benchEngineConfig())
		if err := e.RestoreWarm(d.AnalyticsState()); err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		if _, err := e.Refresh(); err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		if got := TopMentioners(d, benchTopK); len(got) != benchTopK {
			b.Fatalf("ranked %d users, want %d", len(got), benchTopK)
		}
		t4 := time.Now()
		load, restore, first, top = load+t1.Sub(t0), restore+t2.Sub(t1), first+t3.Sub(t2), top+t4.Sub(t3)
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(load), "load_ms")
	b.ReportMetric(perOp(restore), "restore_ms")
	b.ReportMetric(perOp(first), "first_refresh_ms")
	b.ReportMetric(perOp(top), "top_ms")
}

// BenchmarkRestart{100k,1M} are not gated; run them with
// go test -cpu 1 -run '^$' -bench 'Restart(100k|1M)$' -benchtime 4x ./internal/report/
func BenchmarkRestart100k(b *testing.B) { benchRestart(b, 100_000) }
func BenchmarkRestart1M(b *testing.B)   { benchRestart(b, 1_000_000) }
