package report

import (
	"strings"
	"sync"
	"testing"

	"donorsense/internal/gen"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
)

var (
	fixtureOnce sync.Once
	fixture     *Analysis
	fixtureErr  error
)

// analyzedFixture analyzes a scale-0.2 corpus (~14k US users) once; the
// geographic checks need that much data to rise above sampling noise,
// just as the paper's 72k users back its Figure 5.
func analyzedFixture(t testing.TB) *Analysis {
	t.Helper()
	fixtureOnce.Do(func() {
		corpus := gen.Generate(gen.DefaultConfig(0.2))
		d := pipeline.NewDataset()
		for _, tw := range corpus.Tweets {
			d.Process(tw)
		}
		cfg := DefaultAnalysisConfig()
		cfg.SweepKs = []int{6, 12} // keep the test fast
		cfg.SilhouetteSample = 300
		fixture, fixtureErr = Analyze(d, cfg)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func TestAnalyzeEndToEnd(t *testing.T) {
	a := analyzedFixture(t)
	if a.Stats.Users == 0 || a.Attention.Users() != a.Stats.Users {
		t.Errorf("users inconsistent: %d vs %d", a.Stats.Users, a.Attention.Users())
	}
	if a.Organs == nil || a.Regions == nil || a.Highlight == nil || a.Dendrogram == nil || a.Clusters == nil {
		t.Fatal("analysis missing components")
	}
	if a.Clusters.K != 12 {
		t.Errorf("k = %d, want 12", a.Clusters.K)
	}
	if len(a.Sweep) != 2 {
		t.Errorf("sweep results = %d, want 2", len(a.Sweep))
	}
	if a.Spearman.R < 0.7 {
		t.Errorf("Spearman r = %.3f, want ≈0.83", a.Spearman.R)
	}
	// Baseline blind spot: among states with a meaningful sample, the
	// winner-takes-all organ is heart nearly everywhere (the paper's
	// §IV-B1 motivation for RR). Tiny states are pure noise, so gate on
	// group size.
	heartWins, withUsers := 0, 0
	for i, code := range a.Regions.StateCodes {
		if a.Regions.GroupSizes[i] < 30 {
			continue
		}
		withUsers++
		if a.Baseline[code] == organ.Heart {
			heartWins++
		}
	}
	if withUsers == 0 || float64(heartWins)/float64(withUsers) < 0.75 {
		t.Errorf("heart wins %d/%d sizeable states; baseline should be dominated by heart", heartWins, withUsers)
	}
}

func TestAnalyzeFindsPlantedAnomalies(t *testing.T) {
	// At scale 0.2 any single state's RR is still dominated by sampling
	// noise (~100 Kansas users), so pool the planted kidney states: their mean
	// kidney RR must sit above the unboosted states' mean. The per-state
	// significance story is tested at paper scale below.
	a := analyzedFixture(t)
	boosted := map[string]bool{"KS": true, "LA": true, "MA": true, "MS": true, "NY": true, "MD": true, "VA": true}
	// Weight each state by its user count: tiny states contribute noise,
	// not signal.
	var boostedSum, boostedW, plainSum, plainW float64
	for i, code := range a.Highlight.StateCodes {
		rr := a.Highlight.Risks[i][organ.Kidney.Index()]
		if !rr.Defined {
			continue
		}
		w := float64(a.Regions.GroupSizes[i])
		if boosted[code] {
			boostedSum += rr.RR.RR * w
			boostedW += w
		} else {
			plainSum += rr.RR.RR * w
			plainW += w
		}
	}
	if boostedW == 0 || plainW == 0 {
		t.Fatal("no defined RRs")
	}
	boostedMean := boostedSum / boostedW
	plainMean := plainSum / plainW
	if boostedMean <= plainMean*1.04 {
		t.Errorf("boosted-state weighted kidney RR %.3f not above plain %.3f", boostedMean, plainMean)
	}
}

// TestFigure5SignificanceAtScale reproduces the paper's Figure 5 at the
// paper's own magnitude (≈72k users — the CI rule needs that much data,
// which is exactly the paper's point): Kansas kidney must be
// significantly highlighted and must lead the Midwest (the paper's
// headline geographic finding).
func TestFigure5SignificanceAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus is slow; skipped in -short")
	}
	corpus := gen.Generate(gen.DefaultConfig(1.0))
	d := pipeline.NewDataset()
	for _, tw := range corpus.Tweets {
		d.Process(tw)
	}
	cfg := DefaultAnalysisConfig()
	cfg.KUsers = 0 // Figure 5 and the baseline only
	cfg.SweepKs = nil
	a, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := a.Highlight
	kidneyStates := h.StatesHighlighting(organ.Kidney)
	foundKS := false
	for _, code := range kidneyStates {
		if code == "KS" {
			foundKS = true
		}
	}
	if !foundKS {
		t.Errorf("Kansas not significant for kidney at paper scale; states = %v", kidneyStates)
	}
	// The paper: Kansas is the Midwestern state whose kidney conversations
	// "highly exceed" the national expectation. The α=0.05 rule runs 312
	// uncorrected tests, so another Midwestern state can occasionally
	// squeak past the CI bound by chance (the paper has the same
	// exposure); the robust claim is that Kansas carries the region's
	// largest kidney excess by a margin.
	ksRR := 0.0
	for _, code := range geo.StateCodes() {
		st, _ := geo.StateByCode(code)
		if st.Region != geo.Midwest {
			continue
		}
		r := h.Risks[geo.StateIndex(code)][organ.Kidney.Index()]
		if !r.Defined {
			continue
		}
		if code == "KS" {
			ksRR = r.RR.RR
		} else if r.Highlighted() {
			t.Logf("note: midwestern %s also crossed the CI bound (RR=%.2f) — multiplicity noise", code, r.RR.RR)
		}
	}
	for _, code := range geo.StateCodes() {
		st, _ := geo.StateByCode(code)
		if st.Region != geo.Midwest || code == "KS" {
			continue
		}
		r := h.Risks[geo.StateIndex(code)][organ.Kidney.Index()]
		if r.Defined && r.RR.RR >= ksRR {
			t.Errorf("midwestern %s kidney RR %.2f >= Kansas %.2f; Kansas should lead the region", code, r.RR.RR, ksRR)
		}
	}
	// The raw-count baseline names heart in the overwhelming majority of
	// states — the paper's §IV-B1 blind spot ("most states have their
	// first-most-mentioned organ as heart").
	w := a.Baseline
	heartWins, total := 0, 0
	for _, code := range h.StateCodes {
		if w[code] == organ.Organ(-1) {
			continue
		}
		total++
		if w[code] == organ.Heart {
			heartWins++
		}
	}
	if float64(heartWins)/float64(total) < 0.85 {
		t.Errorf("heart wins only %d/%d states in the raw-count baseline", heartWins, total)
	}
}

func TestRenderContainsAllSections(t *testing.T) {
	a := analyzedFixture(t)
	out := a.Render()
	for _, section := range []string{
		"Table I", "Figure 2(a)", "Figure 2(b)", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7", "Spearman", "model selection",
	} {
		if !strings.Contains(out, section) {
			t.Errorf("render missing %q", section)
		}
	}
}
