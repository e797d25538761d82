package donorsense_test

// Benchmarks for the extension experiments (DESIGN.md lists them as
// optional/future-work features of the paper): multiple-testing
// correction of the Figure 5 map, the temporal burst sensor, and the
// parallel pipeline front-end.

import (
	"testing"

	"donorsense/internal/core"
	"donorsense/internal/gen"
	"donorsense/internal/pipeline"
	"donorsense/internal/temporal"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// BenchmarkExtension_MultipleTestingCorrection times the BH/Bonferroni
// adjustment of the full (state, organ) relative-risk table.
func BenchmarkExtension_MultipleTestingCorrection(b *testing.B) {
	benchSetup(b)
	h, err := stateCells().Highlight()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range []core.Correction{core.NoCorrection, core.BHCorrection, core.BonferroniCorrection} {
			if _, err := h.AdjustedHighlights(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtension_BurstDetection times the causal burst detector over
// a full collection window for all six organs.
func BenchmarkExtension_BurstDetection(b *testing.B) {
	benchSetup(b)
	cfg := gen.DefaultConfig(benchScale)
	series, err := temporal.NewSeries(cfg.Start, cfg.Days)
	if err != nil {
		b.Fatal(err)
	}
	d := pipeline.NewDataset()
	d.OnUSTweet = func(tw twitter.Tweet, ex text.Extraction) { series.Observe(tw, ex) }
	d.ProcessAll(benchCorpus.Tweets, 0)
	det := temporal.DefaultDetectorConfig()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := temporal.DetectAll(series, det); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_ParallelPipeline contrasts the sequential pipeline
// with the sharded front-end.
func BenchmarkExtension_ParallelPipeline(b *testing.B) {
	benchSetup(b)
	for _, workers := range []int{1, 2, 4, 8} {
		name := map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4", 8: "workers-8"}[workers]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := pipeline.NewDataset()
				d.ProcessAll(benchCorpus.Tweets, workers)
			}
		})
	}
}
