package donorsense_test

// Benchmarks for the extension experiments (DESIGN.md lists them as
// optional/future-work features of the paper): multiple-testing
// correction of the Figure 5 map, the temporal burst sensor, user-role
// recovery, and the parallel pipeline front-end.

import (
	"sort"
	"testing"

	"donorsense/internal/core"
	"donorsense/internal/gen"
	"donorsense/internal/influence"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/roles"
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

// BenchmarkExtension_RoleRecovery times feature extraction, training, and
// evaluation of the user-role classifier.
func BenchmarkExtension_RoleRecovery(b *testing.B) {
	benchSetup(b)
	labelOf := func(id int64) (int, bool) {
		p, ok := benchCorpus.Profiles[id]
		return int(p.Role), ok
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		samples := roles.SamplesFromDataset(benchDataset, labelOf)
		train, test := roles.SplitTrainTest(samples, 0.7)
		nb, err := roles.Train(train, gen.NumRoles)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := roles.Evaluate(nb, test); err != nil {
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

// BenchmarkExtension_InfluencePlanning times the full campaign-planning
// path: synthetic follower graph over the dataset's users, cascade
// simulation, and greedy seed selection vs the baselines.
func BenchmarkExtension_InfluencePlanning(b *testing.B) {
	benchSetup(b)
	nodes := make([]influence.Node, 0, benchAtt.Users())
	benchDataset.EachUser(func(u *pipeline.UserRecord) {
		row := benchAtt.RowOf(u.ID)
		if row < 0 {
			return
		}
		nodes = append(nodes, influence.Node{
			UserID:    u.ID,
			StateCode: u.StateCode,
			Primary:   benchAtt.PrimaryOrgan(row),
			Activity:  u.Tweets,
		})
	})
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].UserID < nodes[j].UserID })
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := influence.SyntheticGraph(nodes, influence.DefaultGraphConfig())
		if err != nil {
			b.Fatal(err)
		}
		cfg := influence.DefaultCascadeConfig(organ.Lung)
		cfg.Runs = 16
		c, err := influence.NewCascade(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := influence.PlanCampaign(c, 3); err != nil {
			b.Fatal(err)
		}
	}
}
