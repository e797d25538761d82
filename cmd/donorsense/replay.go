// donorsense replay: the simulated Twitter Stream API. It serves an
// NDJSON corpus — an archived collection, or a synthetic one from
// donorsense generate — on /1.1/statuses/filter.json in the v1.1
// streaming format (chunked, newline-delimited JSON), so any collector
// (donorsense collect, or a third-party client) consumes it as it would
// the real endpoint:
//
//	donorsense generate -scale 0.02 -seed 1 -out corpus.ndjson
//	donorsense replay -in corpus.ndjson -rate 500
//	donorsense collect -url http://127.0.0.1:7700 -max 5000
//
// Every matching tweet is delivered exactly once, however late or slowly
// the collector reads; then the stream answers 410 Gone, or with -loop
// replays the corpus forever.
//
// A positive -fault-rate, -ratelimit or -servererr injects faults:
// mid-stream disconnects, stalls, malformed and oversized lines, delete
// notices, and 420/503 responses with Retry-After — the weather a
// 385-day collector must survive — and the corpus is still delivered
// exactly once. The `replay finished` log record at exit counts every
// injected fault, so a run can be diffed against what the collector
// under test observed.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/twitter"
)

// replayer is the replay subcommand: its flags, the corpus decoded from
// -in, and the one replay server over it.
type replayer struct {
	in, addr, telemetryAddr string
	cfg                     twitter.ReplayConfig

	logger *slog.Logger
	reg    *obs.Registry // nil without -telemetry-addr
	nr     twitter.NDJSONReader
	tweets []twitter.Tweet
	rs     *twitter.ReplayServer
}

func cmdReplay(args []string) error {
	r, err := newReplayer(args)
	if err != nil {
		return err
	}
	return r.run()
}

// newReplayer parses the replay flags, decodes the -in corpus and builds
// the replay server over it. Faults are off while every fault rate is 0.
func newReplayer(args []string) (*replayer, error) {
	r := &replayer{}
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	fs.StringVar(&r.in, "in", "corpus.ndjson", "input NDJSON corpus")
	fs.StringVar(&r.addr, "addr", ":7700", "listen address")
	fs.Float64Var(&r.cfg.Rate, "rate", 0, "tweets per second (0 = as fast as clients drain)")
	fs.StringVar(&r.telemetryAddr, "telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof, /debug/vars on this address (empty = off)")
	fs.Uint64Var(&r.cfg.Seed, "seed", 1, "random seed")
	fs.BoolVar(&r.cfg.Loop, "loop", false, "replay the corpus forever instead of once")
	fs.Float64Var(&r.cfg.FaultRate, "fault-rate", 0, "chaos: per-tweet probability of an injected fault")
	fs.DurationVar(&r.cfg.StallDuration, "stall", 5*time.Second, "chaos: silence duration of an injected stall")
	fs.Float64Var(&r.cfg.RateLimitRate, "ratelimit", 0, "chaos: per-connection probability of a 420 rate-limit response")
	fs.Float64Var(&r.cfg.ServerErrorRate, "servererr", 0, "chaos: per-connection probability of a 503 response")
	fs.DurationVar(&r.cfg.RetryAfter, "retry-after", 2*time.Second, "chaos: Retry-After advertised on 420/503 responses")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	obs.SetLogger(obs.NewLogger(os.Stderr, slog.LevelInfo, false))
	r.logger = obs.Logger("replay")
	if r.telemetryAddr != "" {
		r.reg = obs.NewRegistry()
		twitter.NewWireMetrics(r.reg).ObserveReader(&r.nr)
	}

	f, err := os.Open(r.in)
	if err != nil {
		return nil, fmt.Errorf("open corpus: %w", err)
	}
	// Stream the archive through the wire codec: one reused line buffer
	// and Tweet, no per-line garbage; only the corpus slice itself grows.
	err = r.nr.Decode(f, func(t *twitter.Tweet) error {
		r.tweets = append(r.tweets, *t)
		return nil
	})
	f.Close()
	if err != nil {
		return nil, err
	}
	if r.nr.Skipped > 0 {
		r.logger.Warn("skipped oversized corpus lines", "count", r.nr.Skipped)
	}
	r.rs = twitter.NewReplayServer(r.tweets, r.cfg)
	return r, nil
}

// run serves the stream until SIGINT or SIGTERM, then logs what was
// delivered and injected.
func (r *replayer) run() error {
	ctx, stop := obs.SignalContext()
	defer stop()
	if r.reg != nil {
		srv := obs.NewServer(r.reg)
		srv.AddStatus("replay", r.status)
		srv.AddStatus("memory", obs.MemStatsStatusSection(nil))
		srv.Start(ctx, r.telemetryAddr)
	}
	r.logger.Info("serving stream API", "addr", r.addr, "filter", twitter.FilterPath,
		"tweets", len(r.tweets), "rate", r.cfg.Rate, "loop", r.cfg.Loop)
	err := obs.Serve(ctx, r.addr, r.rs.Handler(), nil)
	st := r.rs.Stats()
	r.logger.Info("replay finished",
		"connections", st.Connections, "delivered", st.Delivered, "remaining", r.rs.Remaining(),
		"disconnects", st.Disconnects, "stalls", st.Stalls,
		"malformed", st.Malformed, "oversized", st.Oversized, "deletes", st.Deletes,
		"rate_limited", st.RateLimited, "server_errors", st.ServerError)
	return err
}

// status is the /statusz replay section: the corpus, the delivery
// progress and the faults injected so far.
func (r *replayer) status() obs.StatusSection {
	st := r.rs.Stats()
	var sec obs.StatusSection
	sec.Field("corpus_tweets", len(r.tweets))
	sec.Field("delivered", st.Delivered)
	sec.Field("remaining", r.rs.Remaining())
	sec.Field("skipped_lines", r.nr.Skipped)
	sec.Field("rate", r.cfg.Rate)
	sec.Field("connections", st.Connections)
	sec.Field("injected_disconnects", st.Disconnects)
	sec.Field("injected_stalls", st.Stalls)
	sec.Field("injected_malformed", st.Malformed)
	sec.Field("injected_oversized", st.Oversized)
	sec.Field("injected_deletes", st.Deletes)
	sec.Field("injected_rate_limited", st.RateLimited)
	sec.Field("injected_server_errors", st.ServerError)
	return sec
}
