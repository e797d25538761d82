package donorsense_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches listed in DESIGN.md §4. Each bench times the
// computation that regenerates its artifact over a shared synthetic
// corpus; run cmd/benchtables to see the artifacts themselves.
//
//	go test -bench=. -benchmem

import (
	"sync"
	"testing"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/gen"
	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// benchScale keeps `go test -bench=.` minutes, not hours; cmd/benchtables
// runs the same code at scale 0.5–1.0.
const benchScale = 0.05

var (
	benchOnce    sync.Once
	benchCorpus  *gen.Corpus
	benchDataset *pipeline.Dataset
	benchAtt     *core.Attention
	benchStates  []int16 // geo.StateCodes() row of each Û row
	benchU       *mat.Matrix
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus = gen.Generate(gen.DefaultConfig(benchScale))
		benchDataset = pipeline.NewDataset()
		for _, t := range benchCorpus.Tweets {
			benchDataset.Process(t)
		}
		att, states, err := benchDataset.BuildAttentionStates()
		if err != nil {
			panic(err)
		}
		benchAtt, benchStates, benchU = att, states, att.Matrix()
	})
	b.ResetTimer()
}

// organSignatures is Figure 3: every Û row folded into the Equation 3
// group sums of its primary organ (Equation 1).
func organSignatures() (*core.OrganCharacterization, error) {
	gs := core.NewGroupSums(organ.Count)
	for r := 0; r < benchAtt.Users(); r++ {
		if err := gs.Fold(benchAtt.PrimaryOrgan(r).Index(), benchU.RowView(r), 1); err != nil {
			return nil, err
		}
	}
	return gs.Organs()
}

// stateSignatures is Figure 4: every located Û row folded into the
// Equation 3 group sums of its state (Equation 2).
func stateSignatures() (*core.RegionCharacterization, error) {
	gs := core.NewGroupSums(len(geo.StateCodes()))
	for r, s := range benchStates {
		if s < 0 {
			continue
		}
		if err := gs.Fold(int(s), benchU.RowView(r), 1); err != nil {
			return nil, err
		}
	}
	return gs.Regions()
}

// stateCells counts every located user into the Equation 4 cells behind
// Figure 5 and the winner-takes-all baseline.
func stateCells() *core.StateOrganCells {
	c := core.NewStateOrganCells()
	for r, s := range benchStates {
		if s < 0 {
			continue
		}
		mask := uint8(0)
		for j, v := range benchU.RowView(r) {
			if v > 0 {
				mask |= 1 << j
			}
		}
		c.AddUser(int(s), mask, 1)
	}
	return c
}

// buildAttention builds Û from rows of mention counts, one row per id.
func buildAttention(b *testing.B, ids []int64, counts []int32) {
	if _, err := core.AttentionFromCounts(ids, counts); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTableI_DatasetStats times the full collect → augment → filter
// pass that produces Table I.
func BenchmarkTableI_DatasetStats(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := pipeline.NewDataset()
		for _, t := range benchCorpus.Tweets {
			d.Process(t)
		}
		if s := d.Stats(); s.Users == 0 {
			b.Fatal("empty dataset")
		}
	}
}

// BenchmarkFigure1_KeywordProduct times building the Context × Subject
// collection filter and compiling it to Stream API track phrases.
func BenchmarkFigure1_KeywordProduct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := twitter.NewTrackFilter(organ.TrackTerms())
		if f.NumPhrases() != len(organ.Keywords()) {
			b.Fatal("keyword product mismatch")
		}
	}
}

// BenchmarkFigure2a_OrganPopularity times the users-per-organ histogram
// and its Spearman validation against OPTN transplant counts.
func BenchmarkFigure2a_OrganPopularity(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		counts := benchDataset.UsersPerOrgan()
		if counts[organ.Heart.Index()] == 0 {
			b.Fatal("no heart users")
		}
		if _, err := benchDataset.PopularityCorrelation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2b_MultiOrganMentions times the tweets-vs-users
// multi-organ histograms.
func BenchmarkFigure2b_MultiOrganMentions(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tweets, users := benchDataset.MultiOrganHistogram()
		if tweets[0] == 0 || users[0] == 0 {
			b.Fatal("degenerate histogram")
		}
	}
}

// BenchmarkFigure3_OrganCharacterization times Û construction plus the
// Equation 1 membership and Equation 3 aggregation.
func BenchmarkFigure3_OrganCharacterization(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oc, err := organSignatures()
		if err != nil {
			b.Fatal(err)
		}
		_ = oc.CoMentionRank(organ.Heart)
	}
}

// BenchmarkFigure4_StateCharacterization times the Equation 2 membership
// and aggregation into per-state signatures.
func BenchmarkFigure4_StateCharacterization(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := stateSignatures(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5_RelativeRisk times the full per-(state, organ) RR
// analysis with confidence intervals.
func BenchmarkFigure5_RelativeRisk(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := stateCells().Highlight()
		if err != nil {
			b.Fatal(err)
		}
		_ = h.StatesHighlighting(organ.Kidney)
	}
}

// BenchmarkFigure6_StateClustering times the Bhattacharyya distance
// matrix and agglomerative clustering of states.
func BenchmarkFigure6_StateClustering(b *testing.B) {
	benchSetup(b)
	rc, err := stateSignatures()
	if err != nil {
		b.Fatal(err)
	}
	rows, _ := rc.NonEmptyRows()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := cluster.PairwiseMatrix(rows, cluster.Bhattacharyya, 0)
		if err != nil {
			b.Fatal(err)
		}
		dg, err := cluster.Agglomerative(m, cluster.AverageLinkage)
		if err != nil {
			b.Fatal(err)
		}
		_ = dg.LeafOrder()
	}
}

// BenchmarkFigure7_UserClustering times K-Means (k=12, the paper's
// choice) over the user attention rows plus a sampled silhouette.
func BenchmarkFigure7_UserClustering(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := cluster.KMeans(benchU, cluster.KMeansConfig{K: 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.SilhouetteSampled(benchU, res.Labels, cluster.Euclidean, 500, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblation_UserVsTweetCharacterization contrasts the paper's
// user-based Û with the naive tweet-based alternative it argues against
// (§III-B): the tweet-based matrix is much larger and dominated by heavy
// tweeters.
func BenchmarkAblation_UserVsTweetCharacterization(b *testing.B) {
	benchSetup(b)
	b.Run("user-based", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var ids []int64
			var counts []int32
			benchDataset.EachUser(func(u *pipeline.UserRecord) {
				ids = append(ids, u.ID)
				for _, m := range u.Mentions {
					counts = append(counts, int32(m))
				}
			})
			buildAttention(b, ids, counts)
		}
	})
	b.Run("tweet-based", func(b *testing.B) {
		ex := text.NewExtractor()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every tweet becomes its own matrix row — the
			// characterization the paper rejects as biased toward heavy
			// tweeters (and ~1.9× the rows).
			var ids []int64
			var counts []int32
			for _, t := range benchCorpus.Tweets {
				e := ex.Extract(t.Text)
				if !e.InContext() {
					continue
				}
				ids = append(ids, int64(len(ids)+1))
				for _, m := range e.Mentions {
					counts = append(counts, int32(m))
				}
			}
			buildAttention(b, ids, counts)
		}
	})
}

// BenchmarkAblation_DistanceMetrics compares the affinity metrics for the
// Figure 6 state clustering (§IV-B2 argues for Bhattacharyya).
func BenchmarkAblation_DistanceMetrics(b *testing.B) {
	benchSetup(b)
	rc, err := stateSignatures()
	if err != nil {
		b.Fatal(err)
	}
	rows, _ := rc.NonEmptyRows()
	metrics := []struct {
		name string
		d    cluster.Distance
	}{
		{"bhattacharyya", cluster.Bhattacharyya},
		{"hellinger", cluster.Hellinger},
		{"euclidean", cluster.Euclidean},
		{"jensen-shannon", cluster.JensenShannon},
	}
	for _, m := range metrics {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dm, err := cluster.PairwiseMatrix(rows, m.d, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cluster.Agglomerative(dm, cluster.AverageLinkage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_RRVsWinnerTakesAll contrasts the paper's relative-
// risk highlighting with the raw-count baseline (§IV-B1).
func BenchmarkAblation_RRVsWinnerTakesAll(b *testing.B) {
	benchSetup(b)
	b.Run("relative-risk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stateCells().Highlight(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("winner-takes-all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stateCells().WinnerTakesAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_KMeansKSweep times the model-selection sweep behind
// the paper's k = 12 choice.
func BenchmarkAblation_KMeansKSweep(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.SweepK(benchU, []int{6, 12, 16}, 1, 300, 0); err != nil {
			b.Fatal(err)
		}
	}
}
