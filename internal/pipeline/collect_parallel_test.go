package pipeline

import (
	"context"
	"reflect"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/obs"
	"donorsense/internal/twitter"
)

// feed delivers a corpus over a channel the way a stream client does.
func feed(tweets []twitter.Tweet) <-chan twitter.Tweet {
	ch := make(chan twitter.Tweet, 64)
	go func() {
		for _, t := range tweets {
			ch <- t
		}
		close(ch)
	}()
	return ch
}

// assertDatasetsIdentical extends checkpoint_test's assertDatasetsEqual
// with the aggregate counters and per-user records.
func assertDatasetsIdentical(t *testing.T, got, want *Dataset) {
	t.Helper()
	assertDatasetsEqual(t, got, want)
	if got.Users() != want.Users() || got.USTweets() != want.USTweets() ||
		got.TotalCollected() != want.TotalCollected() || got.GeoTagged() != want.GeoTagged() {
		t.Fatalf("aggregate counters differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			got.Users(), got.USTweets(), got.TotalCollected(), got.GeoTagged(),
			want.Users(), want.USTweets(), want.TotalCollected(), want.GeoTagged())
	}
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Errorf("stats differ:\n%+v\n%+v", got.Stats(), want.Stats())
	}
	want.EachUser(func(u *UserRecord) {
		gu, ok := got.LookupUser(u.ID)
		if !ok || gu != *u {
			t.Fatalf("user %d differs: %+v vs %+v", u.ID, gu, u)
		}
	})
}

// TestCollectParallelMatchesCollect: the streaming parallel path must
// produce a bit-identical dataset to sequential Process over the same
// delivery sequence — the Table I guarantee for live collection.
func TestCollectParallelMatchesCollect(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))

	seq := NewDataset()
	for _, tw := range corpus.Tweets {
		seq.Process(tw)
	}

	par := NewDataset()
	parN := par.CollectParallel(context.Background(), feed(corpus.Tweets), CollectOptions{Workers: 4})

	if parN != len(corpus.Tweets) {
		t.Fatalf("parallel folded %d tweets, sequential %d", parN, len(corpus.Tweets))
	}
	assertDatasetsIdentical(t, par, seq)
}

// TestCollectParallelWorkerOne: one worker is one prepare goroutine
// behind the same chunked fold, so OnFold fires once per folded chunk —
// never more than once per tweet, with a strictly growing total that ends
// at the stream length — and the dataset equals the Process oracle.
func TestCollectParallelWorkerOne(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.002))
	want := NewDataset()
	for _, tw := range corpus.Tweets {
		want.Process(tw)
	}

	par := NewDataset()
	var totals []int
	n := par.CollectParallel(context.Background(), feed(corpus.Tweets), CollectOptions{
		Workers: 1,
		OnFold:  func(total int) bool { totals = append(totals, total); return true },
	})
	if n != len(corpus.Tweets) || len(totals) == 0 || totals[len(totals)-1] != n {
		t.Fatalf("folded %d (callbacks %d), want %d", n, len(totals), len(corpus.Tweets))
	}
	for i := 1; i < len(totals); i++ {
		if d := totals[i] - totals[i-1]; d <= 0 || d > ingestChunkSize {
			t.Fatalf("OnFold step %d folded %d tweets, want 1..%d", i, d, ingestChunkSize)
		}
	}
	assertDatasetsIdentical(t, par, want)
}

// TestCollectParallelEarlyStop: OnFold returning false must stop the
// collection near the threshold (on a chunk boundary), not run the whole
// stream dry.
func TestCollectParallelEarlyStop(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.02))
	if len(corpus.Tweets) < 5000 {
		t.Fatalf("corpus too small for an early-stop test: %d", len(corpus.Tweets))
	}
	d := NewDataset()
	const stopAt = 500
	n := d.CollectParallel(context.Background(), feed(corpus.Tweets), CollectOptions{
		Workers: 4,
		OnFold:  func(total int) bool { return total < stopAt },
	})
	if n < stopAt {
		t.Errorf("stopped after %d tweets, threshold %d", n, stopAt)
	}
	// The stop may overshoot by at most one chunk beyond the threshold.
	if n >= stopAt+ingestChunkSize {
		t.Errorf("folded %d tweets, want < %d", n, stopAt+ingestChunkSize)
	}
}

// TestCollectParallelTicks: a tick delivered while the collector is idle
// must invoke OnTick on the folding goroutine.
func TestCollectParallelTicks(t *testing.T) {
	tweets := make(chan twitter.Tweet)
	ticks := make(chan time.Time, 1)
	ticked := make(chan int, 1)
	done := make(chan int, 1)
	d := NewDataset()
	go func() {
		done <- d.CollectParallel(context.Background(), tweets, CollectOptions{
			Workers: 2,
			Ticks:   ticks,
			OnTick:  func(total int) { ticked <- total },
		})
	}()
	ticks <- time.Now()
	select {
	case <-ticked:
	case <-time.After(5 * time.Second):
		t.Fatal("tick never observed")
	}
	close(tweets)
	if n := <-done; n != 0 {
		t.Errorf("folded %d tweets from an empty stream", n)
	}
}

// TestCollectParallelContextCancel: cancellation must end collection and
// still return a consistent dataset.
func TestCollectParallelContextCancel(t *testing.T) {
	tweets := make(chan twitter.Tweet)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := NewDataset()
	if n := d.CollectParallel(ctx, tweets, CollectOptions{Workers: 4}); n != 0 {
		t.Errorf("folded %d tweets under a cancelled context", n)
	}
}

// TestProcessAllWiresMetrics: every ingest entry point records the same
// pipeline metrics for the same corpus — Process one tweet at a time,
// ProcessAll, and CollectParallel at one and four workers. Outcome and
// USA-filter counters, the per-stage histogram counts and the size
// gauges must agree across rows, and with the outcome counts.
func TestProcessAllWiresMetrics(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	ingest := []struct {
		name string
		run  func(d *Dataset)
	}{
		{"Process", func(d *Dataset) {
			for _, tw := range corpus.Tweets {
				d.Process(tw)
			}
		}},
		{"ProcessAll", func(d *Dataset) { d.ProcessAll(corpus.Tweets, 4) }},
		{"CollectParallel/workers-1", func(d *Dataset) {
			d.CollectParallel(context.Background(), feed(corpus.Tweets), CollectOptions{Workers: 1})
		}},
		{"CollectParallel/workers-4", func(d *Dataset) {
			d.CollectParallel(context.Background(), feed(corpus.Tweets), CollectOptions{Workers: 4})
		}},
	}
	causes := []string{"geotag_us", "geotag_foreign", "profile_us", "profile_us_unlocated", "profile_unresolved", "profile_foreign"}
	// observed reads every instrument the rows must agree on.
	observed := func(m *Metrics) map[string]float64 {
		got := map[string]float64{
			"users":           m.users.Value(),
			"us_tweets":       m.usTweets.Value(),
			"total_collected": m.totalCollected.Value(),
			"cache_entries":   m.cacheEntries.Value(),
			"userstore_rows":  m.userstoreRows.Value(),
			"userstore_bytes": m.userstoreBytes.Value(),
		}
		for _, o := range []Outcome{Rejected, CollectedNonUS, CollectedUS} {
			got["tweets/"+outcomeLabel(o)] = m.tweets.With(outcomeLabel(o)).Value()
		}
		for _, c := range causes {
			got["filter/"+c] = m.filter.With(c).Value()
		}
		for _, st := range []string{StageIngest, StageExtract, StageLocate} {
			got["stage/"+st] = float64(m.stage.With(st).Count())
		}
		return got
	}

	var want map[string]float64
	for _, row := range ingest {
		m := NewMetrics(obs.NewRegistry())
		d := NewDataset()
		d.SetMetrics(m)
		row.run(d)
		got := observed(m)

		inContext := d.TotalCollected()
		rej := len(corpus.Tweets) - inContext
		checks := []struct {
			key  string
			want int
		}{
			{"tweets/" + outcomeLabel(Rejected), rej},
			{"tweets/" + outcomeLabel(CollectedNonUS), inContext - d.USTweets()},
			{"tweets/" + outcomeLabel(CollectedUS), d.USTweets()},
			{"stage/" + StageExtract, len(corpus.Tweets)},
			{"stage/" + StageIngest, len(corpus.Tweets)},
			{"stage/" + StageLocate, inContext},
			{"us_tweets", d.USTweets()},
			{"users", d.Users()},
		}
		for _, c := range checks {
			if int(got[c.key]) != c.want {
				t.Errorf("%s: %s = %v, want %d", row.name, c.key, got[c.key], c.want)
			}
		}
		filtered := 0.0
		for _, c := range causes {
			filtered += got["filter/"+c]
		}
		if int(filtered) != inContext {
			t.Errorf("%s: %v USA-filter decisions, want one per in-context tweet (%d)", row.name, filtered, inContext)
		}
		if hits, misses := m.cacheHits.Value(), m.cacheMisses.Value(); hits == 0 || misses == 0 {
			t.Errorf("%s: cache counters hits=%v misses=%v, want both > 0", row.name, hits, misses)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics differ from %s:\n got %v\nwant %v", row.name, ingest[0].name, got, want)
		}
	}
}
