package report

import (
	"fmt"
	"slices"
	"strings"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/stats"
)

// Analysis bundles every result of the paper's evaluation computed over
// one dataset, ready for rendering or programmatic inspection.
type Analysis struct {
	Stats      pipeline.TableI
	Popularity [organ.Count]int
	Spearman   stats.SpearmanResult
	// MultiTweets/MultiUsers: Figure 2(b) histograms (index 0 ⇒ k=1).
	MultiTweets [organ.Count]int
	MultiUsers  [organ.Count]int

	Attention *core.Attention

	Organs    *core.OrganCharacterization  // Figure 3
	Regions   *core.RegionCharacterization // Figure 4
	Highlight *core.HighlightResult        // Figure 5
	Baseline  map[string]organ.Organ       // winner-takes-all baseline

	// Figure 6: distances between non-empty state rows, their codes, and
	// the dendrogram.
	StateDist  [][]float64
	StateCodes []string
	Dendrogram *cluster.Dendrogram

	// Figure 7: user clustering at KUsers clusters, plus the selection
	// sweep.
	KUsers   int
	Clusters *cluster.KMeansResult
	Sweep    []cluster.SweepResult
}

// AnalysisConfig tunes the expensive parts of Analyze.
type AnalysisConfig struct {
	// KUsers is the user-cluster count (paper: 12).
	KUsers int
	// SweepKs lists the ks for the model-selection sweep; empty skips
	// the sweep.
	SweepKs []int
	// SilhouetteSample bounds silhouette computations (0 = exact).
	SilhouetteSample int
	// Seed drives K-Means initialization.
	Seed uint64
	// Workers bounds the concurrency of the clustering passes
	// (0 = GOMAXPROCS). Results are bit-identical for any value.
	Workers int
}

// DefaultAnalysisConfig mirrors the paper's choices.
func DefaultAnalysisConfig() AnalysisConfig {
	return AnalysisConfig{
		KUsers:           12,
		SweepKs:          []int{6, 8, 10, 12, 14, 16},
		SilhouetteSample: 2000,
		Seed:             1,
	}
}

// Analyze runs the complete evaluation of the paper over a processed
// dataset: Table I, Figure 2 histograms and Spearman validation, the
// organ/region characterizations, RR highlighting, state clustering, and
// user clustering. It is the Engine's cold build, run on a fresh engine
// that neither enables nor drains the dataset's change tracking, so an
// Analyze next to a live Engine leaves that engine's delta alone.
func Analyze(d *pipeline.Dataset, cfg AnalysisConfig) (*Analysis, error) {
	e := &Engine{d: d, cfg: cfg}
	return e.coldBuild()
}

// RunSweep fills a.Sweep with the K-Means model-selection sweep over Û
// at cfg.SweepKs. It leaves Sweep nil when cfg lists no ks or when there
// are no more users than the largest k.
func (a *Analysis) RunSweep(cfg AnalysisConfig) error {
	u := a.Attention.Matrix()
	if len(cfg.SweepKs) == 0 || u.Rows() <= slices.Max(cfg.SweepKs) {
		return nil
	}
	var err error
	if a.Sweep, err = cluster.SweepK(u, cfg.SweepKs, cfg.Seed, cfg.SilhouetteSample, cfg.Workers); err != nil {
		return fmt.Errorf("report: k sweep: %w", err)
	}
	return nil
}

// Render produces the complete textual report, every table and figure in
// paper order.
func (a *Analysis) Render() string {
	var b strings.Builder
	b.WriteString("=== Table I: dataset statistics ===\n")
	b.WriteString(TableIText(a.Stats))
	b.WriteString("\n=== Figure 2 ===\n")
	b.WriteString(UsersPerOrganText(a.Popularity))
	b.WriteString(SpearmanText(a.Spearman))
	b.WriteString("\n")
	b.WriteString(MultiOrganText(a.MultiTweets, a.MultiUsers))
	b.WriteString("\n=== Figure 3 ===\n")
	b.WriteString(OrganCharacterizationText(a.Organs))
	b.WriteString("\n=== Figure 4 ===\n")
	b.WriteString(RegionCharacterizationText(a.Regions))
	b.WriteString(RegionHistogramsText(a.Regions))
	b.WriteString("\n=== Figure 5 ===\n")
	b.WriteString(HighlightText(a.Highlight))
	if a.Dendrogram != nil {
		b.WriteString("\n=== Figure 6 ===\n")
		b.WriteString(SimilarityHeatmapText(a.StateDist, a.StateCodes, a.Dendrogram))
	}
	if a.Clusters != nil {
		b.WriteString("\n=== Figure 7 ===\n")
		b.WriteString(UserClustersText(a.Clusters, a.Attention.Users()))
	}
	if len(a.Sweep) > 0 {
		b.WriteString("\n")
		b.WriteString(SweepText(a.Sweep))
	}
	return b.String()
}
