// Streaming demonstrates the real-time social-sensor mode the paper's
// conclusion envisions: a live Stream API server replays the corpus over
// HTTP, a collector consumes it with the Figure 1 track filter, and the
// dataset is re-characterized on the fly — printing how the organ
// popularity ranking and the Kansas kidney signal sharpen as data
// accumulates.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/temporal"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

func main() {
	// A stream server replaying a synthetic corpus, as donorsense
	// generate and donorsense replay would, but in-process. It delivers
	// every matching tweet exactly once, at the pace the collector reads.
	corpus := gen.Generate(gen.DefaultConfig(0.05))
	server := httptest.NewServer(twitter.NewReplayServer(corpus.Tweets, twitter.ReplayConfig{}).Handler())
	defer server.Close()

	// The collector side: the paper's exact keyword filter, a reconnecting
	// client, and an incrementally updated dataset.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := &twitter.StreamClient{BaseURL: server.URL}
	tweets := make(chan twitter.Tweet, 4096)
	errc := make(chan error, 1)
	go func() { errc <- client.Filter(ctx, organ.TrackTerms(), tweets) }()

	dataset := pipeline.NewDataset()
	series, err := temporal.NewSeries(corpus.Config.Start, corpus.Config.Days)
	if err != nil {
		log.Fatal(err)
	}
	dataset.OnUSTweet = func(tw twitter.Tweet, ex text.Extraction) {
		series.Observe(tw, ex)
	}
	const snapshotEvery = 10000
	n := 0
	for t := range tweets {
		dataset.Process(t)
		n++
		if n%snapshotEvery == 0 {
			snapshot(dataset, n)
		}
	}
	if err := <-errc; err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstream ended after %d tweets — final state:\n", n)
	snapshot(dataset, n)

	// The live sensor's burst log: which awareness campaigns did the
	// stream reveal? (The generator plants Heart Month, Kidney Month,
	// and Donate Life Month; see internal/gen.DefaultEvents.)
	det := temporal.DefaultDetectorConfig()
	det.Threshold = 2.5
	bursts, err := temporal.DetectAll(series, det)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncampaigns detected in the stream:")
	if len(bursts) == 0 {
		fmt.Println("  none (try a larger -scale)")
	}
	for _, b := range bursts {
		fmt.Printf("  %-10s %s – %s  peak %d/day (z=%.1f)\n",
			b.Organ,
			series.Start().AddDate(0, 0, b.StartDay).Format("Jan 02 2006"),
			series.Start().AddDate(0, 0, b.EndDay).Format("Jan 02 2006"),
			b.Peak, b.Z)
	}
}

// snapshot prints the sensor's current reading: Table I and the
// popularity ranking from a fresh analysis, and — once enough users are
// in — the Kansas kidney signal.
func snapshot(d *pipeline.Dataset, n int) {
	cfg := report.DefaultAnalysisConfig()
	cfg.SweepKs = nil
	a, err := report.Analyze(d, cfg)
	if err != nil {
		fmt.Printf("\n--- after %d stream tweets: no analysis yet (%v) ---\n", n, err)
		return
	}
	fmt.Printf("\n--- after %d stream tweets: %d US users, %d US tweets ---\n",
		n, a.Stats.Users, a.Stats.TweetsCollected)
	fmt.Printf("  popularity: %v\n", report.PopularityRank(a.Popularity))

	if a.Stats.Users < 500 {
		return // too early for geographic signals
	}
	row := geo.StateIndex("KS")
	rr := a.Highlight.Risks[row][organ.Kidney.Index()]
	if rr.Defined {
		sig := ""
		if rr.Highlighted() {
			sig = "  SIGNIFICANT"
		}
		fmt.Printf("  Kansas kidney RR=%.2f [%.2f, %.2f]%s\n",
			rr.RR.RR, rr.RR.Lower, rr.RR.Upper, sig)
	}
}
