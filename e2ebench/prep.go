package main

import (
	"fmt"
	"runtime"
	"sync"

	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/twitter"
)

// Input preparation. Everything here runs before any timed window and
// outside setup_s: it stands in for data that already exists when a
// collector restarts (the stream on the wire, the checkpoint on disk).

// topK is how many top mentioners each published snapshot carries, the
// collector's -serve-top default.
const topK = 250

// generate synthesizes the corpus at the given scale (1.0 is the paper's
// magnitude, about a million in-context tweets).
func generate(seed uint64, scale float64) []twitter.Tweet {
	cfg := gen.DefaultConfig(scale)
	cfg.Seed = seed
	return gen.Generate(cfg).Tweets
}

// encodeFeed encodes the tweets the paper's track filter passes as NDJSON
// with twitter.AppendTweet: what a StreamServer would send a collector
// subscribed with organ.TrackTerms(). Encoding runs on every CPU; the
// output is in input order.
func encodeFeed(tweets []twitter.Tweet) (*feed, error) {
	workers := runtime.GOMAXPROCS(0)
	parts := make([]feed, workers)
	errs := make([]error, workers)
	per := (len(tweets) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := min(w*per, len(tweets)), min((w+1)*per, len(tweets))
		wg.Add(1)
		go func(part *feed, errp *error, ts []twitter.Tweet) {
			defer wg.Done()
			filter := twitter.NewTrackFilter(organ.TrackTerms())
			part.offs = []int{0}
			for i := range ts {
				if !filter.Matches(ts[i].Text) {
					continue
				}
				var err error
				if part.buf, err = twitter.AppendTweet(part.buf, &ts[i]); err != nil {
					*errp = fmt.Errorf("encode tweet %d: %w", ts[i].ID, err)
					return
				}
				part.buf = append(part.buf, '\n')
				part.offs = append(part.offs, len(part.buf))
			}
		}(&parts[w], &errs[w], tweets[lo:hi])
	}
	wg.Wait()
	size, lines := 0, 0
	for w := range parts {
		if errs[w] != nil {
			return nil, errs[w]
		}
		size += len(parts[w].buf)
		lines += parts[w].lines()
	}
	f := &feed{buf: make([]byte, 0, size), offs: make([]int, 1, lines+1)}
	for _, p := range parts {
		base := len(f.buf)
		f.buf = append(f.buf, p.buf...)
		for _, o := range p.offs[1:] {
			f.offs = append(f.offs, base+o)
		}
	}
	return f, nil
}

// engineConfig is the live engine's configuration, as collect
// -report-every builds it: the paper's k and silhouette sample, no sweep.
func engineConfig() report.AnalysisConfig {
	cfg := report.DefaultAnalysisConfig()
	cfg.SweepKs = nil
	cfg.Workers = liveWorkers
	return cfg
}

// writeCheckpoint fabricates the restored collector state and saves it as
// a v4 checkpoint carrying the engine's warm clustering state, as a
// collector running with -report-every leaves behind.
func writeCheckpoint(path string, seed uint64, users int) error {
	d := pipeline.SynthDataset(users, seed)
	e := report.NewEngine(d, engineConfig())
	if _, err := e.Refresh(); err != nil {
		return fmt.Errorf("checkpoint analysis: %w", err)
	}
	warm, err := e.MarshalWarm()
	if err != nil {
		return fmt.Errorf("checkpoint warm state: %w", err)
	}
	d.SetAnalyticsState(warm)
	if err := d.SaveCheckpoint(path); err != nil {
		return fmt.Errorf("save checkpoint: %w", err)
	}
	return nil
}
