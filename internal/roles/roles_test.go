package roles

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"donorsense/internal/cluster"
	"donorsense/internal/gen"
	"donorsense/internal/mat"
	"donorsense/internal/pipeline"
)

// --- Classifier unit tests on synthetic Gaussians ---

func gaussSamples(r *rand.Rand, n int) []Sample {
	// Three well-separated classes in the first two features.
	centers := [][2]float64{{0, 0}, {5, 0}, {0, 5}}
	out := make([]Sample, 0, n*3)
	for c, ctr := range centers {
		for i := 0; i < n; i++ {
			var f Features
			f[0] = ctr[0] + r.NormFloat64()*0.5
			f[1] = ctr[1] + r.NormFloat64()*0.5
			out = append(out, Sample{X: f, Y: c})
		}
	}
	return out
}

func TestNaiveBayesSeparatesGaussians(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	train := gaussSamples(r, 100)
	test := gaussSamples(r, 30)
	nb, err := Train(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(nb, test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.98 {
		t.Errorf("accuracy on separated Gaussians = %.3f, want ≥ .98", ev.Accuracy)
	}
	for c, rec := range ev.Recall {
		if rec < 0.95 {
			t.Errorf("class %d recall = %.3f", c, rec)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, 3); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Train([]Sample{{Y: 0}}, 1); err == nil {
		t.Error("single class accepted")
	}
	if _, err := Train([]Sample{{Y: 5}}, 3); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestTrainHandlesEmptyClass(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	samples := gaussSamples(r, 50) // labels 0..2
	nb, err := Train(samples, 5)   // classes 3, 4 empty
	if err != nil {
		t.Fatal(err)
	}
	// Prediction still works and never picks the empty classes for
	// in-distribution points.
	for _, s := range samples[:20] {
		if p := nb.Predict(s.X); p > 2 {
			t.Errorf("empty class %d predicted", p)
		}
	}
}

func TestTrainZeroVarianceFeature(t *testing.T) {
	// All samples share feature[3] == 1 exactly; the variance floor must
	// keep densities finite.
	var s0, s1 Sample
	s0.X[3], s1.X[3] = 1, 1
	s0.X[0], s1.X[0] = 0, 10
	s1.Y = 1
	nb, err := Train([]Sample{s0, s1, s0, s1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	lp := nb.LogPosteriors(s0.X)
	for _, v := range lp {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate log posterior %v", lp)
		}
	}
	if nb.Predict(s0.X) != 0 || nb.Predict(s1.X) != 1 {
		t.Error("zero-variance training set misclassified")
	}
}

func TestEvaluateErrors(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	nb, _ := Train(gaussSamples(r, 10), 3)
	if _, err := Evaluate(nb, nil); err == nil {
		t.Error("empty evaluation set accepted")
	}
	if _, err := Evaluate(nb, []Sample{{Y: 9}}); err == nil {
		t.Error("out-of-range evaluation label accepted")
	}
}

func TestSplitTrainTest(t *testing.T) {
	samples := make([]Sample, 1000)
	train, test := SplitTrainTest(samples, 0.7)
	if len(train)+len(test) != 1000 {
		t.Fatalf("split loses samples: %d + %d", len(train), len(test))
	}
	frac := float64(len(train)) / 1000
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("train fraction = %.3f, want ≈0.7", frac)
	}
	// Deterministic.
	tr2, _ := SplitTrainTest(samples, 0.7)
	if len(tr2) != len(train) {
		t.Error("split not deterministic")
	}
}

// --- Purity ---

func TestClusterPurity(t *testing.T) {
	clusters := []int{0, 0, 0, 1, 1, 1}
	truth := []int{7, 7, 8, 9, 9, 9}
	p, err := ClusterPurity(clusters, truth)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p, 5.0/6.0) {
		t.Errorf("purity = %v, want 5/6", p)
	}
	if _, err := ClusterPurity([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ClusterPurity(nil, nil); err == nil {
		t.Error("empty labelings accepted")
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMajorityClassShare(t *testing.T) {
	if got := MajorityClassShare([]int{1, 1, 1, 2}); !approx(got, 0.75) {
		t.Errorf("majority share = %v, want .75", got)
	}
	if MajorityClassShare(nil) != 0 {
		t.Error("empty labels share != 0")
	}
}

// --- End-to-end role recovery on the synthetic corpus ---

var (
	roleOnce    sync.Once
	roleSamples []Sample
	roleCorpus  *gen.Corpus
	roleDataset *pipeline.Dataset
)

// roleFixture builds labelled feature vectors from a scale-0.1 corpus.
func roleFixture(t testing.TB) []Sample {
	t.Helper()
	roleOnce.Do(func() {
		roleCorpus = gen.Generate(gen.DefaultConfig(0.1))
		roleDataset = pipeline.NewDataset()
		for _, tw := range roleCorpus.Tweets {
			roleDataset.Process(tw)
		}
		roleSamples = SamplesFromDataset(roleDataset, func(id int64) (int, bool) {
			p, ok := roleCorpus.Profiles[id]
			return int(p.Role), ok
		})
	})
	if len(roleSamples) == 0 {
		t.Fatal("no labelled samples")
	}
	return roleSamples
}

func TestRoleRecoveryBeatsBaseline(t *testing.T) {
	samples := roleFixture(t)
	train, test := SplitTrainTest(samples, 0.7)
	nb, err := Train(train, gen.NumRoles)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(nb, test)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, len(test))
	for i, s := range test {
		labels[i] = s.Y
	}
	t.Logf("accuracy %.3f vs majority share %.3f (n=%d)", ev.Accuracy, MajorityClassShare(labels), ev.N)
	macro := 0.0
	for c := 0; c < gen.NumRoles; c++ {
		t.Logf("  %-15s recall %.3f precision %.3f", gen.Role(c), ev.Recall[c], ev.Precision[c])
		macro += ev.Recall[c]
	}
	macro /= gen.NumRoles
	// The honest yardstick on an imbalanced multi-class problem is macro
	// recall: always-predict-majority scores 1/NumRoles = 0.2. Gaussian
	// NB trades some majority-class accuracy for minority recall, which
	// is exactly what a role detector is for.
	if macro < 2.0/gen.NumRoles {
		t.Errorf("macro recall %.3f does not beat the majority baseline's %.3f", macro, 1.0/gen.NumRoles)
	}
	// The strongly-marked roles must be recoverable: advocacy accounts
	// (activity + breadth + hashtags) and practitioners (clinical
	// vocabulary).
	if ev.Recall[int(gen.Advocacy)] < 0.55 {
		t.Errorf("advocacy recall = %.3f, want ≥ .55", ev.Recall[int(gen.Advocacy)])
	}
	if ev.Recall[int(gen.Practitioner)] < 0.5 {
		t.Errorf("practitioner recall = %.3f, want ≥ .5", ev.Recall[int(gen.Practitioner)])
	}
}

func TestKMeansClustersAlignWithRoles(t *testing.T) {
	samples := roleFixture(t)
	// Cluster on the attention rows only (the paper's Figure 7 input).
	rows := make([][]float64, len(samples))
	truth := make([]int, len(samples))
	for i, s := range samples {
		rows[i] = append([]float64(nil), s.X[:6]...)
		truth[i] = s.Y
	}
	m, err := mat.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cluster.KMeans(m, cluster.KMeansConfig{K: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	purity, err := ClusterPurity(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	baseline := MajorityClassShare(truth)
	t.Logf("attention-only cluster purity %.3f vs baseline %.3f", purity, baseline)
	// Attention alone cannot separate patient from general public (both
	// are single-organ), so purity should be near — not far above — the
	// baseline. This reproduces the paper's hedge that clusters "might"
	// capture roles: organ attention is not enough; behaviour features
	// are needed (previous test).
	if purity < baseline-0.02 {
		t.Errorf("purity %.3f below baseline %.3f", purity, baseline)
	}
}

func TestFeatureExtraction(t *testing.T) {
	u := &pipeline.UserRecord{
		ID:               1,
		Tweets:           4,
		Mentions:         [6]int{2, 2, 0, 0, 0, 0},
		ClinicalMentions: 1,
		Hashtags:         2,
	}
	f := Extract(u)
	if !approx(f[0], 0.5) || !approx(f[1], 0.5) {
		t.Errorf("attention features = %v", f[:6])
	}
	if !approx(f[6], math.Log1p(4)) {
		t.Errorf("activity feature = %v", f[6])
	}
	if !approx(f[7], 2) {
		t.Errorf("breadth feature = %v", f[7])
	}
	if !approx(f[8], 0.25) {
		t.Errorf("clinical share = %v", f[8])
	}
	if !approx(f[9], 0.5) {
		t.Errorf("hashtag rate = %v", f[9])
	}
	// Zero record stays finite.
	zero := Extract(&pipeline.UserRecord{})
	for _, v := range zero {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate feature in %v", zero)
		}
	}
	if len(FeatureNames()) != NumFeatures {
		t.Error("feature names out of sync")
	}
}
