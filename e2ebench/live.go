package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
	"donorsense/internal/twitter"
)

// A live workload: a collector restarts from a checkpoint of users users
// with live analytics on, then streams at a fixed rate below what it can
// drain. On a fixed cadence the fold goroutine runs Refresh →
// TopMentioners → Publish, as collect -report-every does, while one
// closed-loop client queries /api. live_1m: over a million rows the
// incremental report, warm K-Means, top-k and the snapshot build do most
// of the work and ingest is light. live_100k: a tenth of the rows at one
// and a half times the rate, so the refresh floor shrinks tenfold and the
// ingest layers take a larger share.
type live struct {
	users int
	rate  float64 // offered tweets per second
}

// refreshEvery is the refresh cadence: the fold goroutine refreshes on
// the first fold at least this long after the previous publish ended.
const refreshEvery = 50 * time.Millisecond

// liveWorkers is the collector's worker count for ingest and analysis,
// collect's -workers default: tweets fold one by one on the collect
// goroutine and each refresh runs on it alone, so on two cores the other
// one is left to the stream client and the API.
const liveWorkers = 1

// A run restarts at least setupReps times and until the restarts add up
// to setupMin, and setup_s is their median: single restarts of the same
// checkpoint spread by up to a third, and a 100k-user restart takes only
// about a tenth of a second.
const (
	setupReps = 5
	setupMin  = 2 * time.Second
)

// liveState is a restarted collector with its engine and publisher.
type liveState struct {
	d      *pipeline.Dataset
	engine *report.Engine
	pub    *serve.Publisher
	last   *report.Analysis
	load   time.Duration
	first  time.Duration // the first Refresh
	setup  time.Duration
}

// restart is what collect -serve or serve -checkpoint pays before its
// first answer: load the checkpoint, restore the warm clustering state,
// refresh, rank the top mentioners and publish.
func restart(ckpt string) (*liveState, error) {
	t0 := time.Now()
	d, err := pipeline.LoadCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	s := &liveState{d: d, load: time.Since(t0)}
	s.engine = report.NewEngine(d, engineConfig())
	if err := s.engine.RestoreWarm(d.AnalyticsState()); err != nil {
		return nil, fmt.Errorf("restore warm state: %w", err)
	}
	t1 := time.Now()
	if s.last, err = s.engine.Refresh(); err != nil {
		return nil, fmt.Errorf("first refresh: %w", err)
	}
	s.first = time.Since(t1)
	s.pub = serve.NewPublisher()
	if _, err := s.pub.Publish(s.last, serve.Meta{
		Epoch: s.engine.Epoch(), Refreshes: s.engine.Refreshes(), Top: report.TopMentioners(d, topK),
	}); err != nil {
		return nil, fmt.Errorf("first publish: %w", err)
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (w live) run(cfg config, r *result) error {
	n := int(w.rate * cfg.seconds.Seconds())
	// About 988k tweets pass the track filter per unit of scale; generate
	// just enough for the window.
	f, err := encodeFeed(generate(cfg.seed, float64(n)/900_000+0.02))
	if err != nil {
		return err
	}
	if f.lines() < n {
		return fmt.Errorf("corpus has %d tracked tweets, the window needs %d", f.lines(), n)
	}
	f.truncate(n)
	ckpt := filepath.Join(cfg.dir, "collector.ckpt")
	if err := writeCheckpoint(ckpt, cfg.seed, w.users); err != nil {
		return err
	}

	var setups, loads, firsts []float64
	var s *liveState
	var spent time.Duration
	for i := 0; i < setupReps || spent < setupMin; i++ {
		s = nil // let the previous restart's state go first
		settle()
		if s, err = restart(ckpt); err != nil {
			return err
		}
		setups = append(setups, s.setup.Seconds())
		spent += s.setup
		loads = append(loads, s.load.Seconds())
		firsts = append(firsts, s.first.Seconds())
	}
	r.set("setup_s", median(setups))

	var h *hooks
	if cfg.trace {
		h = newHooks()
		s.d.SetMetrics(pipeline.NewMetrics(h.reg))
	}
	api, err := startAPI(s.pub)
	if err != nil {
		return err
	}
	defer api.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	settle()
	origin := time.Now()
	p := newPacer(f, w.rate, origin)
	srv, err := startStream(p)
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil { // closed and dropped below unless an error returns first
			srv.close()
		}
	}()
	client := newStreamClient(srv.url)
	var delivered []time.Duration
	if cfg.trace {
		client.Codec = twitter.NewDecoder()
		twitter.NewWireMetrics(h.reg).Observe(client.Codec)
		delivered = make([]time.Duration, n)
	}

	stop := make(chan struct{})
	queries := make(chan *queryLoad, 1)
	go func() { queries <- runQueries(api.addr, stop) }()

	u0 := sampleUsage()
	in, wait := consume(ctx, client, origin, delivered)
	var folds []mark
	var cycles []cycle
	var refreshFailed int64
	var lastEnd time.Duration
	folded := s.d.CollectParallel(ctx, in, pipeline.CollectOptions{
		Workers: liveWorkers,
		OnFold: func(total int) bool {
			now := time.Since(origin)
			folds = append(folds, mark{total, now})
			if total < n && now-lastEnd < refreshEvery {
				return true
			}
			c := cycle{covered: total, start: now}
			a, err := s.engine.Refresh()
			c.refreshed = time.Since(origin)
			if err != nil {
				refreshFailed++
				r.note("refresh failed: %v", err)
				lastEnd = c.refreshed
				return true
			}
			top := report.TopMentioners(s.d, topK)
			c.topped = time.Since(origin)
			if _, err := s.pub.Publish(a, serve.Meta{Epoch: s.engine.Epoch(), Refreshes: s.engine.Refreshes(), Top: top}); err != nil {
				refreshFailed++
				r.note("publish failed: %v", err)
				lastEnd = time.Since(origin)
				return true
			}
			c.published = time.Since(origin)
			c.dirty, _, _ = s.engine.LastRefresh()
			cycles = append(cycles, c)
			s.last, lastEnd = a, c.published
			return true
		},
	})
	window := sampleUsage().since(u0)
	close(stop)
	q := <-queries
	if err := wait(); err != nil {
		return err
	}
	if err := srv.wait(ctx); err != nil {
		return err
	}
	srv.close()
	stream := client.Snapshot()

	// Outputs: every tweet sent was folded, every refresh succeeded, and
	// the API serves the last analysis.
	r.attempt(int64(n), int64(n-folded))
	r.check(folded == n, "sent %d tweets, folded %d", n, folded)
	r.attempt(int64(len(cycles))+refreshFailed, refreshFailed)
	r.check(refreshFailed == 0, "%d refresh cycles failed", refreshFailed)
	err = checkStats(api.url, s.last.Stats, s.pub.Seq())
	r.check(err == nil, "final /api/stats: %v", err)
	recordQueries(r, q, s.pub)

	path := tweetPath{due: make([]time.Duration, n)}
	for i := range path.due {
		path.due[i] = p.due(i)
	}
	vis, covered := visibility(n, cycles)
	var ok bool
	path.folded, ok = expandMarks(n, folds)
	if !covered || !ok {
		return fmt.Errorf("%d tweets sent, %d folded, %d refreshes: not every tweet became visible", n, folded, len(cycles))
	}
	lags := visibleLags(path, cycles, vis)
	sorted := sortedCopy(lags)
	p50, nl := quantile(sorted, 0.50)
	p90, _ := quantile(sorted, 0.90)
	r.check(supported(nl, 0.90), "visible lag p90 of %d tweets has fewer than ten beyond it", nl)
	r.check(len(cycles) >= 10, "only %d refreshes in the window", len(cycles))
	r.note("%d users, %d tweets at %.0f/s, %d refreshes, %d queries; lag = publish end - scheduled send", w.users, nl, w.rate, len(cycles), q.sent)
	r.set("visible_lag_p50_ms", p50)
	r.set("visible_lag_p90_ms", p90)
	r.set("ingest_tweets_per_s", float64(n)/(path.folded[n-1]-p.due(0)).Seconds())
	var cycleMS, refreshMS, topMS, publishMS, dirty []float64
	for _, c := range cycles {
		cycleMS = append(cycleMS, ms(c.published-c.start))
		refreshMS = append(refreshMS, ms(c.refreshed-c.start))
		topMS = append(topMS, ms(c.topped-c.refreshed))
		publishMS = append(publishMS, ms(c.published-c.topped))
		dirty = append(dirty, float64(c.dirty))
	}
	r.set("samples.lag_tweets", float64(nl))
	r.set("samples.refreshes", float64(len(cycles)))
	r.set("samples.reps", float64(len(setups)))

	if cfg.trace {
		path.sent, path.delivered = p.sent, delivered
		setQuantiles(r, "twitter.transit_ms", diffs(path.sent, path.delivered), 0.50, 0.90)
		setQuantiles(r, "pipeline.ingest_ms", diffs(path.delivered, path.folded), 0.50, 0.90)
		setQuantiles(r, "gen.lateness_ms", diffs(path.due, path.sent), 0.99)
		waits := make([]float64, n)
		for i := range waits {
			waits[i] = ms(cycles[vis[i]].start - path.folded[i])
		}
		setQuantiles(r, "report.refresh_wait_ms", waits, 0.50)
		setQuantiles(r, "report.cycle_ms", cycleMS, 0.50)
		setQuantiles(r, "report.refresh_ms", refreshMS, 0.50, 0.90)
		setQuantiles(r, "report.top_ms", topMS, 0.50)
		setQuantiles(r, "serve.publish_ms", publishMS, 0.50)
		setQuantiles(r, "report.dirty_rows", dirty, 0.50)

		// The median tweet's lag, split into its path segments.
		seg := segments(path, cycles, vis, rankedTweet(lags, 0.50))
		var total time.Duration
		for k, d := range seg {
			r.set("lag.p50."+segmentNames[k]+"_ms", ms(d))
			total += d
		}
		r.set("lag.p50.total_ms", ms(total))
		r.check(ms(total) == p50, "lag segments add up to %v ms, visible_lag_p50_ms is %v", ms(total), p50)

		r.set("twitter.decode_s", h.decodeS())
		r.set("text.extract_s", h.extractS())
		r.set("geo.locate_s", h.locateS())
		r.set("geo.cache_hit_ratio", h.cacheHitRatio())
		r.set("twitter.delivered", float64(stream.Tweets))
		r.set("twitter.skipped_lines", float64(stream.SkippedLines+stream.MalformedLines))
		r.set("twitter.reconnects", float64(stream.Retries))
		r.set("pipeline.checkpoint_load_s", median(loads))
		r.set("report.first_refresh_s", median(firsts))
		var cycleBusy float64
		for _, c := range cycleMS {
			cycleBusy += c / 1000
		}
		window.record(r, h.decodeS()+h.extractS()+h.locateS()+cycleBusy)
	}

	// The inputs and the samples are the benchmark's, not the collector's.
	f, p, srv, folds, vis, delivered, lags, sorted, path = nil, nil, nil, nil, nil, nil, nil, nil, tweetPath{}
	r.set("heap_live_mb", heapLiveMB())
	recordStore(r, s.d)
	return nil
}
