// Command streamsim runs the simulated Twitter Stream API server: it
// synthesizes a corpus and replays it over HTTP in the v1.1 streaming
// format (chunked, newline-delimited JSON) at a configurable rate.
// Clients connect to /1.1/statuses/filter.json?track=... exactly as they
// would to the real endpoint. The replay delivers every matching tweet
// exactly once, however slowly or late a collector reads, then answers
// 410 Gone; -loop replays the corpus forever instead.
//
//	streamsim -addr :7700 -scale 0.02 -rate 500
//	donorsense collect -url http://127.0.0.1:7700 -max 5000
//
// With -chaos the replay injects faults: mid-stream disconnects, stalls,
// malformed/oversized lines, delete notices, and 420/503 responses with
// Retry-After — the weather a 385-day collector must survive — and still
// delivers the corpus exactly once. At exit a chaos run prints one
// machine-readable JSON line on stdout summarizing every injected fault,
// so CI can diff the injected counts against what the collector under
// test observed.
//
//	streamsim -chaos -fault-rate 0.01 -stall 5s -ratelimit 0.05
//
// With -telemetry-addr the simulator also serves /metrics, /healthz and
// /debug/pprof, mirroring the collector's own telemetry endpoint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/obs"
	"donorsense/internal/twitter"
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7700", "listen address")
	flag.Float64Var(&o.scale, "scale", 0.02, "corpus scale (1.0 = paper magnitude)")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.Float64Var(&o.rate, "rate", 500, "tweets per second to replay (0 = as fast as clients drain)")
	flag.BoolVar(&o.loop, "loop", false, "replay the corpus forever instead of once")
	flag.BoolVar(&o.chaos, "chaos", false, "inject the fault flags below into the replay")
	flag.Float64Var(&o.faultRate, "fault-rate", 0.01, "chaos: per-tweet probability of an injected fault")
	flag.DurationVar(&o.stall, "stall", 5*time.Second, "chaos: silence duration of an injected stall")
	flag.Float64Var(&o.rateLimit, "ratelimit", 0.02, "chaos: per-connection probability of a 420 rate-limit response")
	flag.Float64Var(&o.serverErr, "servererr", 0.02, "chaos: per-connection probability of a 503 response")
	flag.DurationVar(&o.retryAfter, "retry-after", 2*time.Second, "chaos: Retry-After advertised on 420/503 responses")
	flag.StringVar(&o.telemetryAddr, "telemetry-addr", "", "serve /metrics, /healthz, /debug/pprof on this address (empty = off)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "streamsim:", err)
		os.Exit(1)
	}
}

// options carries the command's flags.
type options struct {
	addr, telemetryAddr string
	scale               float64
	seed                uint64
	rate                float64
	loop, chaos         bool
	faultRate           float64
	stall               time.Duration
	rateLimit           float64
	serverErr           float64
	retryAfter          time.Duration
}

// replayConfig maps the flags onto the replay server's config; the fault
// flags reach it only with -chaos.
func (o options) replayConfig() twitter.ReplayConfig {
	cfg := twitter.ReplayConfig{Seed: o.seed, Rate: o.rate, Loop: o.loop}
	if o.chaos {
		cfg.FaultRate = o.faultRate
		cfg.StallDuration = o.stall
		cfg.RateLimitRate = o.rateLimit
		cfg.ServerErrorRate = o.serverErr
		cfg.RetryAfter = o.retryAfter
	}
	return cfg
}

// newReplay synthesizes the corpus and builds the replay server over it,
// registering the simulator's metric families on reg.
func newReplay(o options, reg *obs.Registry) (*twitter.ReplayServer, []twitter.Tweet) {
	cfg := gen.DefaultConfig(o.scale)
	cfg.Seed = o.seed
	logger := obs.Logger("streamsim")
	logger.Info("generating corpus", "scale", o.scale)
	corpus := gen.Generate(cfg)
	logger.Info("corpus ready", "tweets", len(corpus.Tweets), "users", len(corpus.Profiles))

	rs := twitter.NewReplayServer(corpus.Tweets, o.replayConfig())
	chaosMetrics(reg, rs)
	reg.Gauge("donorsense_sim_corpus_tweets", "Tweets in the replayed corpus.").
		Set(float64(len(corpus.Tweets)))
	// Wire-codec self-check: round-trip the corpus through the codec once
	// so a codec regression is caught before serving and the wire metric
	// families carry real values on /metrics.
	dec := twitter.NewDecoder()
	twitter.NewWireMetrics(reg).Observe(dec)
	var line []byte
	var decoded twitter.Tweet
	roundTripBad := 0
	for i := range corpus.Tweets {
		var err error
		if line, err = twitter.AppendTweet(line[:0], &corpus.Tweets[i]); err != nil || dec.Decode(line, &decoded) != nil {
			roundTripBad++
		}
	}
	if roundTripBad > 0 {
		logger.Error("corpus wire round-trip failures", "count", roundTripBad)
	}
	return rs, corpus.Tweets
}

func run(o options) error {
	logger := obs.Logger("streamsim")
	reg := obs.NewRegistry()
	rs, tweets := newReplay(o, reg)
	ctx, stop := obs.SignalContext()
	defer stop()
	if o.telemetryAddr != "" {
		srv := obs.NewServer(reg)
		srv.AddHealthCheck("simulator", func() (any, error) { return "serving", nil })
		srv.AddStatus("simulator", func() obs.StatusSection {
			st := rs.Stats()
			var sec obs.StatusSection
			sec.Field("chaos", o.chaos)
			sec.Field("corpus_tweets", len(tweets))
			sec.Field("delivered", st.Delivered)
			sec.Field("remaining", rs.Remaining())
			sec.Field("connections", st.Connections)
			sec.Field("rate", o.rate)
			sec.Field("loop", o.loop)
			sec.Field("injected_disconnects", st.Disconnects)
			sec.Field("injected_stalls", st.Stalls)
			return sec
		})
		srv.Start(ctx, o.telemetryAddr)
	}

	logger.Info("serving stream API", "addr", o.addr, "filter", twitter.FilterPath,
		"chaos", o.chaos, "loop", o.loop, "rate", o.rate)
	err := obs.Serve(ctx, o.addr, rs.Handler(), nil)
	st := rs.Stats()
	logger.Info("replay finished",
		"delivered", st.Delivered, "disconnects", st.Disconnects, "stalls", st.Stalls,
		"malformed", st.Malformed, "oversized", st.Oversized, "deletes", st.Deletes,
		"rate_limited", st.RateLimited, "server_errors", st.ServerError)
	if o.chaos {
		if line, jerr := chaosSummaryJSON(st, rs.Remaining()); jerr == nil {
			fmt.Println(line)
		}
	}
	return err
}

// chaosSummary is the machine-readable exit line of a -chaos run: the
// server-side ground truth of every injected fault, diffable in CI
// against the counters a collector under test reported.
type chaosSummary struct {
	Event       string `json:"event"` // always "chaos_summary"
	Connections int64  `json:"connections"`
	Delivered   int64  `json:"delivered"`
	Remaining   int    `json:"remaining"`
	Injected    struct {
		Disconnects int64 `json:"disconnects"`
		Stalls      int64 `json:"stalls"`
		Malformed   int64 `json:"malformed"`
		Oversized   int64 `json:"oversized"`
		Deletes     int64 `json:"deletes"`
		RateLimited int64 `json:"rate_limited"`
		ServerError int64 `json:"server_errors"`
	} `json:"injected"`
}

// chaosSummaryJSON renders the final stats line for a chaos run.
func chaosSummaryJSON(st twitter.ReplayStats, remaining int) (string, error) {
	s := chaosSummary{Event: "chaos_summary", Connections: st.Connections, Delivered: st.Delivered, Remaining: remaining}
	s.Injected.Disconnects = st.Disconnects
	s.Injected.Stalls = st.Stalls
	s.Injected.Malformed = st.Malformed
	s.Injected.Oversized = st.Oversized
	s.Injected.Deletes = st.Deletes
	s.Injected.RateLimited = st.RateLimited
	s.Injected.ServerError = st.ServerError
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// chaosMetrics registers scrape-time views of the injected-fault counters.
func chaosMetrics(reg *obs.Registry, cs *twitter.ReplayServer) {
	stat := func(field func(twitter.ReplayStats) int64) func() float64 {
		return func() float64 { return float64(field(cs.Stats())) }
	}
	reg.CounterFunc("donorsense_chaos_connections_total",
		"Streaming connections accepted (HTTP 200).", stat(func(s twitter.ReplayStats) int64 { return s.Connections }))
	reg.CounterFunc("donorsense_chaos_delivered_total",
		"Real tweets written to clients.", stat(func(s twitter.ReplayStats) int64 { return s.Delivered }))
	reg.CounterFunc("donorsense_chaos_disconnects_total",
		"Injected mid-stream disconnects.", stat(func(s twitter.ReplayStats) int64 { return s.Disconnects }))
	reg.CounterFunc("donorsense_chaos_stalls_total",
		"Injected stalls.", stat(func(s twitter.ReplayStats) int64 { return s.Stalls }))
	reg.CounterFunc("donorsense_chaos_malformed_total",
		"Injected malformed lines.", stat(func(s twitter.ReplayStats) int64 { return s.Malformed }))
	reg.CounterFunc("donorsense_chaos_oversized_total",
		"Injected oversized lines.", stat(func(s twitter.ReplayStats) int64 { return s.Oversized }))
	reg.CounterFunc("donorsense_chaos_deletes_total",
		"Injected delete notices.", stat(func(s twitter.ReplayStats) int64 { return s.Deletes }))
	reg.CounterFunc("donorsense_chaos_rate_limited_total",
		"Connections answered 420.", stat(func(s twitter.ReplayStats) int64 { return s.RateLimited }))
	reg.CounterFunc("donorsense_chaos_server_errors_total",
		"Connections answered 503.", stat(func(s twitter.ReplayStats) int64 { return s.ServerError }))
	reg.GaugeFunc("donorsense_chaos_remaining",
		"Corpus tweets not yet delivered.", func() float64 { return float64(cs.Remaining()) })
}
