// Command donorsense is the command-line interface to the organ-donation
// social sensor. It chains the stages of the paper's pipeline:
//
//	donorsense generate -scale 0.05 -seed 1 -out corpus.ndjson
//	    synthesize a tweet corpus (the Twitter-stream stand-in)
//
//	donorsense analyze -in corpus.ndjson [-k 12] [-sweep 6,8,12]
//	    run collect → augment → filter → characterize and print every
//	    table and figure of the paper
//
//	donorsense replay -in corpus.ndjson -rate 500
//	    serve the corpus as the simulated Stream API, optionally with
//	    injected faults (-fault-rate, -ratelimit, -servererr)
//
//	donorsense collect -url http://127.0.0.1:7700 -max 10000
//	    consume a live stream server (donorsense replay) and analyze the
//	    collected tweets
//
//	donorsense keywords
//	    print the Figure 1 keyword product / Stream API track parameter
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"donorsense/internal/core"
	"donorsense/internal/export"
	"donorsense/internal/gen"
	"donorsense/internal/obs"
	"donorsense/internal/obs/trace"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/serve"
	"donorsense/internal/temporal"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "collect":
		err = cmdCollect(os.Args[2:])
	case "keywords":
		err = cmdKeywords(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "-version", "--version", "version":
		fmt.Println(obs.ReadBuild().String())
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "donorsense: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "donorsense:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: donorsense <command> [flags]

commands:
  generate   synthesize a tweet corpus to NDJSON
  analyze    analyze an NDJSON corpus and print the paper's tables/figures
  collect    consume a stream server, then analyze
  keywords   print the Figure 1 keyword product (Stream API track syntax)
  replay     serve an NDJSON corpus over the Stream API protocol
  serve      expose a checkpoint's analysis as the /api query endpoints
  version    print build identity (module version, go version, VCS revision)
`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	scale := fs.Float64("scale", 0.05, "population scale (1.0 = paper magnitude, ≈1M tweets)")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "corpus.ndjson", "output file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := gen.DefaultConfig(*scale)
	cfg.Seed = *seed
	corpus := gen.Generate(cfg)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := twitter.WriteNDJSON(w, corpus.Tweets); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d tweets (%d users) at scale %g → %s\n",
		len(corpus.Tweets), len(corpus.Profiles), *scale, *out)
	return nil
}

// parseKs parses a comma-separated k list like "6,8,12".
func parseKs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		k, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad k %q: %w", p, err)
		}
		out = append(out, k)
	}
	return out, nil
}

// analysisConfig is the report configuration the -k, -sweep,
// -silhouette-sample and -workers flags ask for.
func analysisConfig(k int, sweep string, silhouetteSample, workers int) (report.AnalysisConfig, error) {
	cfg := report.DefaultAnalysisConfig()
	cfg.KUsers = k
	cfg.SilhouetteSample = silhouetteSample
	cfg.Workers = workers
	ks, err := parseKs(sweep)
	cfg.SweepKs = ks
	return cfg, err
}

// analyzeDataset prints the full analysis of d at cfg. With an engine e
// over d — collect's, which carries its metrics — the analysis is one
// more refresh of e; collect's engines refresh without the
// model-selection sweep, so the sweep runs here. Without one it is
// Analyze.
func analyzeDataset(d *pipeline.Dataset, e *report.Engine, cfg report.AnalysisConfig, series *temporal.Series, exportDir string) error {
	var a *report.Analysis
	var err error
	if e != nil {
		if a, err = e.Refresh(); err == nil {
			err = a.RunSweep(cfg)
		}
	} else {
		a, err = report.Analyze(d, cfg)
	}
	if err != nil {
		return err
	}
	fmt.Print(a.Render())

	var bursts []temporal.Burst
	if series != nil {
		fmt.Println("\n=== Extensions ===")
		counts := map[string]int{}
		for _, m := range []core.Correction{core.NoCorrection, core.BHCorrection, core.BonferroniCorrection} {
			adj, err := a.Highlight.AdjustedHighlights(m)
			if err != nil {
				return err
			}
			counts[m.String()] = core.CountHighlights(adj)
		}
		fmt.Print(report.CorrectionComparisonText(counts))

		det := temporal.DefaultDetectorConfig()
		if bursts, err = temporal.DetectAll(series, det); err != nil {
			return fmt.Errorf("burst detection: %w", err)
		}
		fmt.Print(report.TemporalText(series, bursts))
	}
	if exportDir != "" {
		if err := exportResults(exportDir, a, series, bursts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exported CSV/JSON results to %s\n", exportDir)
	}
	return nil
}

// exportResults writes the machine-readable artifacts of a run.
func exportResults(dir string, a *report.Analysis, series *temporal.Series, bursts []temporal.Burst) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("export dir: %w", err)
	}
	write := func(name string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if err := write("state_signatures.csv", func(w *os.File) error {
		return export.StateSignaturesCSV(w, a.Regions)
	}); err != nil {
		return err
	}
	if err := write("relative_risk.csv", func(w *os.File) error {
		return export.RelativeRiskCSV(w, a.Highlight)
	}); err != nil {
		return err
	}
	if a.Clusters != nil {
		if err := write("user_clusters.csv", func(w *os.File) error {
			return export.ClustersCSV(w, a.Clusters)
		}); err != nil {
			return err
		}
	}
	if series != nil {
		if err := write("daily_series.csv", func(w *os.File) error {
			return export.SeriesCSV(w, series)
		}); err != nil {
			return err
		}
	}
	return write("summary.json", func(w *os.File) error {
		sum := export.BuildSummary(a.Stats, a.Popularity, a.Spearman.R, a.Spearman.P,
			a.Highlight, series, bursts, time.Now().UTC())
		return export.WriteSummaryJSON(w, sum)
	})
}

// newSeriesFor builds an empty temporal series spanning the corpus window
// (derived from the tweet timestamps).
func newSeriesFor(tweets []twitter.Tweet) (*temporal.Series, error) {
	if len(tweets) == 0 {
		return nil, fmt.Errorf("empty corpus")
	}
	first, last := tweets[0].CreatedAt, tweets[0].CreatedAt
	for _, t := range tweets {
		if t.CreatedAt.Before(first) {
			first = t.CreatedAt
		}
		if t.CreatedAt.After(last) {
			last = t.CreatedAt
		}
	}
	days := int(last.Sub(first).Hours()/24) + 1
	return temporal.NewSeries(first.UTC().Truncate(24*time.Hour), days)
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	in := fs.String("in", "corpus.ndjson", "input NDJSON corpus (- for stdin)")
	k := fs.Int("k", 12, "user cluster count (Figure 7)")
	sweep := fs.String("sweep", "6,8,10,12,14,16", "comma-separated ks for the model-selection sweep (empty to skip)")
	sil := fs.Int("silhouette-sample", 2000, "silhouette sample size (0 = exact)")
	extensions := fs.Bool("extensions", false, "also print multiple-testing corrections and the temporal burst sensor")
	workers := fs.Int("workers", 0, "pipeline and analysis workers (0 = GOMAXPROCS; any value gives identical results)")
	exportDir := fs.String("export", "", "directory to write CSV/JSON results into (empty = no export)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("open input: %w", err)
		}
		defer f.Close()
		r = f
	}
	tweets, err := twitter.ReadNDJSON(r)
	if err != nil {
		return err
	}
	d := pipeline.NewDataset()
	var series *temporal.Series
	if *extensions {
		if series, err = newSeriesFor(tweets); err != nil {
			return err
		}
		d.OnUSTweet = func(tw twitter.Tweet, ex text.Extraction) {
			series.Observe(tw, ex)
		}
	}
	cfg, err := analysisConfig(*k, *sweep, *sil, *workers)
	if err != nil {
		return err
	}
	d.ProcessAll(tweets, *workers)
	return analyzeDataset(d, nil, cfg, series, *exportDir)
}

// collector is the collect subcommand: its flags, the stream client,
// the tracer and the telemetry registry, and the dataset the stream
// folds into through CollectParallel, with its periodic checkpoint and,
// with -report-every, the live step that refreshes the analysis and,
// with -serve, publishes it.
type collector struct {
	url                              string
	maxTweets, k, sil, workers       int
	sweep, checkpoint, telemetryAddr string
	checkpointEvery, reportEvery     time.Duration
	stallTimeout, backoff, rlBackoff time.Duration
	serveAPI                         bool
	serveTop                         int
	progressEvery                    time.Duration
	logLevel                         string
	logJSON                          bool
	traceSample                      float64
	traceRing                        int
	traceSlow                        time.Duration

	started       time.Time
	logger        *slog.Logger
	tracer        *trace.Tracer // nil without -trace-sample
	client        *twitter.StreamClient
	relayed       atomic.Int64  // tweets relayed to the fold so far
	reg           *obs.Registry // nil without -telemetry-addr
	engineCfg     report.AnalysisConfig
	engineMetrics *report.EngineMetrics

	d       *pipeline.Dataset
	metrics *pipeline.Metrics // nil without telemetry
	live    *serve.Live       // nil without -report-every; its Publisher is nil without -serve
	// lastSave is the UnixNano of the last checkpoint save (0 = never),
	// read by the telemetry goroutine while the fold goroutine writes it.
	lastSave atomic.Int64
}

func cmdCollect(args []string) error {
	c := &collector{started: time.Now()}
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	fs.StringVar(&c.url, "url", "http://127.0.0.1:7700", "stream server base URL")
	fs.IntVar(&c.maxTweets, "max", 0, "stop after this many collected tweets (0 = until stream ends)")
	fs.IntVar(&c.k, "k", 12, "user cluster count (Figure 7)")
	fs.StringVar(&c.sweep, "sweep", "", "comma-separated ks for the model-selection sweep")
	fs.IntVar(&c.sil, "silhouette-sample", 2000, "silhouette sample size (0 = exact)")
	fs.IntVar(&c.workers, "workers", 1, "extract/geocode goroutines for live collection (0 = GOMAXPROCS); any count folds the same dataset")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "checkpoint file: load on start (if present), save periodically and on shutdown")
	fs.DurationVar(&c.checkpointEvery, "checkpoint-every", 30*time.Second, "interval between periodic checkpoint saves")
	fs.DurationVar(&c.reportEvery, "report-every", 0, "interval between in-flight incremental analysis refreshes (0 = off)")
	fs.DurationVar(&c.stallTimeout, "stall-timeout", 90*time.Second, "tear down connections silent for this long")
	fs.DurationVar(&c.backoff, "backoff", 250*time.Millisecond, "initial reconnect delay (doubles per failure, full jitter)")
	fs.DurationVar(&c.rlBackoff, "ratelimit-backoff", 60*time.Second, "initial delay after a 420/429 rate limit (doubles per repeat)")
	fs.StringVar(&c.telemetryAddr, "telemetry-addr", "", "serve /metrics, /healthz, /statusz, /debug/traces, /debug/pprof, /debug/vars on this address (empty = off)")
	fs.BoolVar(&c.serveAPI, "serve", false, "expose the live analysis as /api/... query endpoints on the telemetry server (requires -telemetry-addr and -report-every)")
	fs.IntVar(&c.serveTop, "serve-top", 250, "top mentioning users retained per published snapshot for /api/top")
	fs.DurationVar(&c.progressEvery, "progress-every", 10*time.Second, "interval between progress log lines (0 = silent)")
	fs.StringVar(&c.logLevel, "log-level", "info", "log verbosity: debug|info|warn|error")
	fs.BoolVar(&c.logJSON, "log-json", false, "emit logs as single-line JSON instead of text")
	fs.Float64Var(&c.traceSample, "trace-sample", 0, "fraction of tweets to span-trace end to end (0 = off, 1 = every tweet)")
	fs.IntVar(&c.traceRing, "trace-ring", 4096, "spans retained in the /debug/traces ring")
	fs.DurationVar(&c.traceSlow, "trace-slow", 250*time.Millisecond, "log a wide event for any sampled span at least this slow")
	if err := fs.Parse(args); err != nil {
		return err
	}
	level, err := obs.ParseLevel(c.logLevel)
	if err != nil {
		return err
	}
	cfg, err := analysisConfig(c.k, c.sweep, c.sil, c.workers)
	if err != nil {
		return err
	}
	if c.checkpoint != "" && c.checkpointEvery <= 0 {
		return fmt.Errorf("-checkpoint-every must be > 0 with -checkpoint, got %v", c.checkpointEvery)
	}
	if c.serveAPI {
		switch {
		case c.telemetryAddr == "":
			return fmt.Errorf("-serve requires -telemetry-addr (the /api endpoints ride the telemetry mux)")
		case c.reportEvery <= 0:
			return fmt.Errorf("-serve requires -report-every > 0 (snapshots publish after each refresh)")
		}
	}
	// Tee warn-or-worse records into the /statusz error ring on the way to
	// stderr, so the page can show recent trouble without log scraping.
	errRing := obs.NewErrorRing(64)
	obs.SetLogger(slog.New(obs.CaptureErrors(obs.NewLogger(os.Stderr, level, c.logJSON).Handler(), errRing)))
	c.logger = obs.Logger("collect")

	if c.traceSample > 0 {
		c.tracer = trace.New(trace.Config{
			SampleRate: c.traceSample,
			RingSize:   c.traceRing,
			SlowSpan:   c.traceSlow,
			Logger:     obs.Logger("trace"),
		})
	}
	// Sampling decisions happen once, at the stream read; the dataset
	// continues the sampled traces.
	c.client = &twitter.StreamClient{
		BaseURL:          c.url,
		StallTimeout:     c.stallTimeout,
		InitialBackoff:   c.backoff,
		RateLimitBackoff: c.rlBackoff,
		Tracer:           c.tracer,
	}
	if c.telemetryAddr != "" {
		c.reg = obs.NewRegistry()
		c.engineMetrics = report.NewEngineMetrics(c.reg)
		c.metrics = pipeline.NewMetrics(c.reg)
	}
	// Engines refresh without the model-selection sweep: it is a cold
	// model-selection tool, not a live artifact, so the final analysis
	// runs it.
	c.engineCfg = cfg
	c.engineCfg.SweepKs = nil
	if err := c.resume(); err != nil {
		return err
	}

	// SIGINT and SIGTERM both end collection; the flush below keeps
	// whatever was gathered before the process exits.
	ctx, stop := obs.SignalContext()
	defer stop()

	if c.reg != nil {
		streamMetrics := twitter.NewStreamMetrics(c.reg)
		streamMetrics.Instrument(c.reg, c.client)
		c.client.Codec = twitter.NewDecoder()
		twitter.NewWireMetrics(c.reg).Observe(c.client.Codec)
		srv := obs.NewServer(c.reg)
		if c.tracer != nil {
			srv.SetTraceRing(c.tracer.Ring())
		}
		srv.AddHealthCheck("stream", streamHealth(c.client, streamMetrics))
		srv.AddStatus("stream", streamStatus(c.client, streamMetrics, c.started))
		srv.AddHealthCheck("checkpoint", checkpointHealth(c.checkpoint, c.checkpointEvery, c.started, &c.lastSave))
		srv.AddStatus("checkpoint", checkpointStatus(c.checkpoint, &c.lastSave))
		srv.AddStatus("analytics", c.live.Status)
		if c.serveAPI {
			mountQueryAPI(srv, c.reg, c.live.Publisher)
		}
		// The fold goroutine owns the dataset, so the footprint comes from
		// the userstore gauges it keeps current.
		srv.AddStatus("memory", obs.MemStatsStatusSection(func(sec *obs.StatusSection) {
			rows, bytes := c.metrics.StoreSizes()
			sec.Field("userstore_rows", rows)
			sec.Field("userstore_bytes", obs.FormatBytes(uint64(bytes)))
		}))
		srv.AddStatus("tracing", tracingStatus(c.tracer))
		srv.AddStatus("errors", errRing.StatusSection)
		srv.Start(ctx, c.telemetryAddr)
	}

	tweets := make(chan twitter.Tweet, 1024)
	errc := make(chan error, 1)
	go func() { errc <- c.client.Filter(ctx, organ.TrackTerms(), tweets) }()
	// The relay closes its stream at the stream's end, on a signal, or
	// after exactly -max tweets, and the fold runs to that close.
	if err := c.fold(limitStream(ctx, stop, tweets, c.maxTweets, &c.relayed)); err != nil {
		return err
	}
	streamErr := <-errc
	if ctx.Err() != nil {
		streamErr = nil // a signal or -max ended the stream
	}
	// Flush even when the stream died, to keep the data.
	switch saveErr := c.flush(); {
	case streamErr != nil && saveErr != nil:
		return fmt.Errorf("stream: %w (and checkpoint save failed: %v)", streamErr, saveErr)
	case streamErr != nil:
		return fmt.Errorf("stream: %w", streamErr)
	case saveErr != nil:
		return saveErr
	}
	cs := c.client.Snapshot()
	c.logger.Info("stream ended; analyzing", "tweets", c.relayed.Load())
	c.logger.Info("client stats",
		"connects", cs.Connects, "disconnects", cs.Disconnects, "retries", cs.Retries,
		"rate_limits", cs.RateLimits, "stalls", cs.Stalls,
		"skipped_lines", cs.SkippedLines, "malformed_lines", cs.MalformedLines)

	if c.d.Users() == 0 {
		return fmt.Errorf("no US users collected; nothing to analyze")
	}
	// The final analysis is one more refresh of the live engine, or of a
	// fresh one, so the engine metrics see it too.
	e := c.live.Engine()
	if e == nil {
		e = report.NewEngine(c.d, c.engineCfg)
		e.SetMetrics(c.engineMetrics)
	}
	return analyzeDataset(c.d, e, cfg, nil, "")
}

// resume loads the -checkpoint file, when there is one, into the
// dataset and attaches the tracer, the metrics and the live step. A
// corrupt primary, or one missing beside a backup, falls back to the
// .bak backup. That costs everything folded after the backup's save, so
// it is logged as a warning and counted. The corrupt primary is then
// removed, so the first save does not demote it over the good backup.
func (c *collector) resume() error {
	c.d = pipeline.NewDataset()
	if c.checkpoint != "" {
		switch loaded, usedBackup, err := pipeline.LoadCheckpointFallback(c.checkpoint); {
		case err == nil && usedBackup:
			if err := os.Remove(c.checkpoint); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("remove corrupt checkpoint: %w", err)
			}
			c.d = loaded
			c.metrics.CheckpointFallback()
			c.logger.Warn("checkpoint unreadable; resumed from its backup",
				"path", c.checkpoint, "backup", pipeline.CheckpointBackupPath(c.checkpoint),
				"us_tweets", c.d.USTweets(), "users", c.d.Users())
		case err == nil:
			c.d = loaded
			c.logger.Info("resumed from checkpoint",
				"path", c.checkpoint, "us_tweets", c.d.USTweets(), "users", c.d.Users())
		case os.IsNotExist(err):
			c.logger.Info("no checkpoint; starting fresh", "path", c.checkpoint)
		default:
			return err
		}
	}
	if c.tracer != nil {
		c.d.SetTracer(c.tracer)
	}
	if c.metrics != nil {
		c.d.SetMetrics(c.metrics)
	}
	if c.reportEvery > 0 {
		c.live = &serve.Live{
			Analysis: c.engineCfg, Every: c.reportEvery, Top: c.serveTop,
			Metrics: c.engineMetrics, Tracer: c.tracer, Logger: c.logger,
		}
		if c.serveAPI {
			c.live.Publisher = serve.NewPublisher()
		}
		c.live.Load(c.d)
	}
	return nil
}

// fold runs CollectParallel: extraction and geocoding fan out across the
// workers while folding, the periodic checkpoint, the live step and the
// progress line stay on this goroutine, so they read a quiescent
// dataset. It watches no context of its own: a stop must not strand
// tweets the relay already passed on.
func (c *collector) fold(tweets <-chan twitter.Tweet) error {
	lastSave, lastProgress := time.Now(), time.Now()
	savedFolds, lastProgressTweets := 0, int64(0)
	// One ticker at the shortest of the progress, checkpoint and live
	// step intervals drives what is due while the stream idles, when no
	// fold comes along to make it (without -checkpoint, a save is a no-op).
	var every time.Duration
	for _, d := range []time.Duration{c.progressEvery, c.checkpointEvery, c.reportEvery} {
		if d > 0 && (every == 0 || d < every) {
			every = d
		}
	}
	var ticks <-chan time.Time
	if every > 0 {
		tick := time.NewTicker(every)
		defer tick.Stop()
		ticks = tick.C
	}
	var saveErr error
	// save checkpoints when one is due and tweets were folded since the
	// last save.
	save := func(folded int) bool {
		if c.checkpoint == "" || folded == savedFolds || time.Since(lastSave) < c.checkpointEvery {
			return true
		}
		if saveErr = c.flush(); saveErr != nil {
			return false
		}
		lastSave, savedFolds = time.Now(), folded
		return true
	}
	// A resumed dataset is published before the first fold.
	c.live.Tick()
	c.d.CollectParallel(context.Background(), tweets, pipeline.CollectOptions{
		Workers: c.workers,
		OnFold: func(n int) bool {
			if !save(n) {
				return false
			}
			c.live.Tick()
			return true
		},
		Ticks: ticks,
		OnTick: func(n int) {
			save(n)
			c.live.Tick()
			if c.progressEvery <= 0 || time.Since(lastProgress) < c.progressEvery {
				return
			}
			// A periodic one-line pulse — ingest rate, retention, and
			// checkpoint age — so a multi-day run is never silent.
			st := c.client.Snapshot()
			rate := float64(st.Tweets-lastProgressTweets) / time.Since(lastProgress).Seconds()
			lastProgress, lastProgressTweets = time.Now(), st.Tweets
			retained := 0.0
			if c.d.TotalCollected() > 0 {
				retained = 100 * float64(c.d.USTweets()) / float64(c.d.TotalCollected())
			}
			attrs := []any{
				"tweets", n,
				"tweets_per_sec", fmt.Sprintf("%.1f", rate),
				"retained_pct", fmt.Sprintf("%.1f", retained),
				"users", c.d.Users(),
				"connects", st.Connects,
			}
			if c.checkpoint != "" {
				if last := c.lastSave.Load(); last > 0 {
					attrs = append(attrs, "checkpoint_age", time.Since(time.Unix(0, last)).Round(time.Second).String())
				} else {
					attrs = append(attrs, "checkpoint_age", "never")
				}
			}
			c.logger.Info("progress", attrs...)
		},
	})
	return saveErr
}

// flush saves the checkpoint, when there is one, with the live step's
// clustering warm state in it (v4).
func (c *collector) flush() error {
	if c.checkpoint == "" {
		return nil
	}
	c.live.SaveWarm()
	if err := c.d.SaveCheckpoint(c.checkpoint); err != nil {
		return err
	}
	c.lastSave.Store(time.Now().UnixNano())
	return nil
}

// limitStream relays tweets from in to the returned channel, counting
// each into n, until in closes or ctx ends. With max > 0 it
// relays exactly max tweets, then cancels the stream through stop and
// drains in so the client can exit. The returned channel closes when the
// relay ends, so a consumer that reads it to the end sees every relayed
// tweet.
func limitStream(ctx context.Context, stop context.CancelFunc, in <-chan twitter.Tweet, max int, n *atomic.Int64) <-chan twitter.Tweet {
	// Buffered like the client's delivery channel, so the relay does not
	// add a per-tweet rendezvous between the client and the fold.
	out := make(chan twitter.Tweet, 1024)
	go func() {
		defer close(out)
		relayed := 0
		for {
			select {
			case <-ctx.Done():
				return
			case t, ok := <-in:
				if !ok {
					return
				}
				select {
				case out <- t:
				case <-ctx.Done():
					return
				}
				relayed++
				n.Add(1)
				if max > 0 && relayed >= max {
					stop()
					// Drain remaining deliveries so the client can exit.
					go func() {
						for range in {
						}
					}()
					return
				}
			}
		}
	}()
	return out
}

func cmdKeywords(args []string) error {
	fs := flag.NewFlagSet("keywords", flag.ExitOnError)
	asTrack := fs.Bool("track", false, "print as a single Stream API track parameter")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asTrack {
		fmt.Println(organ.TrackTerms())
		return nil
	}
	fmt.Printf("Context terms (%d): %s\n", len(organ.ContextWords()), strings.Join(organ.ContextWords(), ", "))
	fmt.Printf("Subject terms (%d): %s\n", len(organ.SubjectWords()), strings.Join(organ.SubjectWords(), ", "))
	fmt.Printf("Keyword product: %d pairs\n", len(organ.Keywords()))
	return nil
}
