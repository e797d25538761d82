package cluster

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// --- Distances ---

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); !approx(got, 5, 1e-12) {
		t.Errorf("Euclidean = %v, want 5", got)
	}
	if got := SquaredEuclidean([]float64{0, 0}, []float64{3, 4}); !approx(got, 25, 1e-12) {
		t.Errorf("SquaredEuclidean = %v, want 25", got)
	}
}

func TestBhattacharyya(t *testing.T) {
	p := []float64{0.5, 0.5}
	if got := Bhattacharyya(p, p); !approx(got, 0, 1e-12) {
		t.Errorf("self distance = %v, want 0", got)
	}
	// Disjoint supports → +Inf.
	if got := Bhattacharyya([]float64{1, 0}, []float64{0, 1}); !math.IsInf(got, 1) {
		t.Errorf("disjoint = %v, want +Inf", got)
	}
	// Known value: BC of (.5,.5) vs (.9,.1) = √.45 + √.05 ≈ 0.8944;
	// distance = −ln(0.8944) ≈ 0.1116.
	got := Bhattacharyya([]float64{0.5, 0.5}, []float64{0.9, 0.1})
	if !approx(got, 0.11157, 1e-4) {
		t.Errorf("Bhattacharyya = %v, want ≈0.11157", got)
	}
}

func TestHellingerBounds(t *testing.T) {
	if got := Hellinger([]float64{1, 0}, []float64{0, 1}); !approx(got, 1, 1e-12) {
		t.Errorf("disjoint Hellinger = %v, want 1", got)
	}
	if got := Hellinger([]float64{0.3, 0.7}, []float64{0.3, 0.7}); !approx(got, 0, 1e-7) {
		t.Errorf("self Hellinger = %v, want 0", got)
	}
}

func TestJensenShannonBounds(t *testing.T) {
	if got := JensenShannon([]float64{1, 0}, []float64{0, 1}); !approx(got, 1, 1e-12) {
		t.Errorf("disjoint JSD = %v, want 1", got)
	}
	if got := JensenShannon([]float64{0.4, 0.6}, []float64{0.4, 0.6}); !approx(got, 0, 1e-12) {
		t.Errorf("self JSD = %v, want 0", got)
	}
}

func randDist(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	s := 0.0
	for i := range p {
		p[i] = r.Float64() + 1e-9
		s += p[i]
	}
	for i := range p {
		p[i] /= s
	}
	return p
}

func TestDistanceProperties(t *testing.T) {
	metrics := map[string]Distance{
		"euclidean":     Euclidean,
		"bhattacharyya": Bhattacharyya,
		"hellinger":     Hellinger,
		"jensenshannon": JensenShannon,
	}
	for name, d := range metrics {
		f := func(seed uint64) bool {
			r := rand.New(rand.NewPCG(seed, 0))
			n := 2 + r.IntN(6)
			p, q := randDist(r, n), randDist(r, n)
			// Symmetry, non-negativity, identity.
			if !approx(d(p, q), d(q, p), 1e-12) {
				return false
			}
			if d(p, q) < 0 {
				return false
			}
			return approx(d(p, p), 0, 1e-7)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPairwiseMatrix(t *testing.T) {
	rows := [][]float64{{0, 0}, {3, 4}, {6, 8}}
	m, err := PairwiseMatrix(rows, Euclidean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][1] != 5 || m[1][0] != 5 || m[0][2] != 10 || m[1][1] != 0 {
		t.Errorf("pairwise wrong: %v", m)
	}
	if _, err := PairwiseMatrix(nil, Euclidean, 0); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := PairwiseMatrix([][]float64{{1}, {1, 2}}, Euclidean, 0); err == nil {
		t.Error("ragged rows accepted")
	}
}

// --- Agglomerative ---

// fourPointDist builds a distance matrix with two tight pairs far apart:
// {0,1} close, {2,3} close, pairs separated.
func fourPointDist() [][]float64 {
	pts := [][]float64{{0}, {1}, {10}, {11}}
	m, _ := PairwiseMatrix(pts, Euclidean, 0)
	return m
}

func TestAgglomerativeMergesTightPairsFirst(t *testing.T) {
	for _, link := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage} {
		dg, err := Agglomerative(fourPointDist(), link)
		if err != nil {
			t.Fatal(err)
		}
		if len(dg.Merges) != 3 {
			t.Fatalf("%v: merges = %d, want 3", link, len(dg.Merges))
		}
		// First two merges join {0,1} and {2,3} at height 1.
		first := map[int]bool{dg.Merges[0].A: true, dg.Merges[0].B: true}
		if !(first[0] && first[1] || first[2] && first[3]) {
			t.Errorf("%v: first merge joined %v", link, dg.Merges[0])
		}
		if !approx(dg.Merges[0].Height, 1, 1e-12) || !approx(dg.Merges[1].Height, 1, 1e-12) {
			t.Errorf("%v: early merge heights %v, %v; want 1", link, dg.Merges[0].Height, dg.Merges[1].Height)
		}
		// Final height depends on linkage: single=9, complete=11, average=10.
		want := map[Linkage]float64{SingleLinkage: 9, CompleteLinkage: 11, AverageLinkage: 10}[link]
		if !approx(dg.Merges[2].Height, want, 1e-12) {
			t.Errorf("%v: final height = %v, want %v", link, dg.Merges[2].Height, want)
		}
	}
}

func TestCut(t *testing.T) {
	dg, _ := Agglomerative(fourPointDist(), AverageLinkage)
	labels, err := dg.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[0] == labels[2] {
		t.Errorf("Cut(2) = %v, want {0,1} vs {2,3}", labels)
	}
	l1, _ := dg.Cut(1)
	for _, l := range l1 {
		if l != 0 {
			t.Errorf("Cut(1) = %v, want all 0", l1)
		}
	}
	l4, _ := dg.Cut(4)
	seen := map[int]bool{}
	for _, l := range l4 {
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Errorf("Cut(4) = %v, want 4 distinct labels", l4)
	}
	if _, err := dg.Cut(0); err == nil {
		t.Error("Cut(0) accepted")
	}
	if _, err := dg.Cut(5); err == nil {
		t.Error("Cut(5) accepted with n=4")
	}
}

func TestLeafOrderGroupsClusters(t *testing.T) {
	dg, _ := Agglomerative(fourPointDist(), AverageLinkage)
	order := dg.LeafOrder()
	if len(order) != 4 {
		t.Fatalf("LeafOrder length %d", len(order))
	}
	sorted := append([]int{}, order...)
	sort.Ints(sorted)
	if !reflect.DeepEqual(sorted, []int{0, 1, 2, 3}) {
		t.Fatalf("LeafOrder not a permutation: %v", order)
	}
	// The two tight pairs must be adjacent in leaf order.
	pos := map[int]int{}
	for i, l := range order {
		pos[l] = i
	}
	if abs(pos[0]-pos[1]) != 1 || abs(pos[2]-pos[3]) != 1 {
		t.Errorf("tight pairs not adjacent in leaf order %v", order)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestAgglomerativeSingleItem(t *testing.T) {
	dg, err := Agglomerative([][]float64{{0}}, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg.Merges) != 0 || len(dg.LeafOrder()) != 1 {
		t.Error("single-item dendrogram malformed")
	}
}

func TestAgglomerativeErrors(t *testing.T) {
	if _, err := Agglomerative(nil, AverageLinkage); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := Agglomerative([][]float64{{0, 1}}, AverageLinkage); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestCopheneticMonotonicAverageLinkage(t *testing.T) {
	// Average-linkage merge heights are monotone non-decreasing for
	// metric inputs; the cophenetic distance of a tight pair is below
	// that of a cross-pair.
	dg, _ := Agglomerative(fourPointDist(), AverageLinkage)
	cd := dg.CopheneticDistances()
	if cd[[2]int{0, 1}] >= cd[[2]int{0, 2}] {
		t.Errorf("cophenetic structure wrong: %v", cd)
	}
	hs := dg.Heights()
	for i := 1; i < len(hs); i++ {
		if hs[i] < hs[i-1]-1e-12 {
			t.Errorf("merge heights decreasing: %v", hs)
		}
	}
}

func TestAgglomerativeClustersGaussianBlobs(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 5))
	var rows [][]float64
	truth := []int{}
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	for c, ctr := range centers {
		for i := 0; i < 20; i++ {
			rows = append(rows, []float64{ctr[0] + r.NormFloat64(), ctr[1] + r.NormFloat64()})
			truth = append(truth, c)
		}
	}
	m, _ := PairwiseMatrix(rows, Euclidean, 0)
	dg, err := Agglomerative(m, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels, _ := dg.Cut(3)
	if !labelsMatch(labels, truth) {
		t.Error("agglomerative failed to recover 3 well-separated blobs")
	}
}

// labelsMatch reports whether two labelings describe the same partition.
func labelsMatch(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if m, ok := fwd[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := rev[b[i]]; ok && m != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

// --- KMeans ---

func blobs(r *rand.Rand, perBlob int, centers [][]float64, spread float64) ([][]float64, []int) {
	var rows [][]float64
	var truth []int
	for c, ctr := range centers {
		for i := 0; i < perBlob; i++ {
			row := make([]float64, len(ctr))
			for j := range row {
				row[j] = ctr[j] + r.NormFloat64()*spread
			}
			rows = append(rows, row)
			truth = append(truth, c)
		}
	}
	return rows, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	rows, truth := blobs(r, 50, [][]float64{{0, 0}, {8, 8}, {-8, 8}, {8, -8}}, 0.5)
	res, err := KMeans(matrixOf(t, rows), KMeansConfig{K: 4, Seed: 1, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !labelsMatch(res.Labels, truth) {
		t.Error("kmeans failed to recover 4 well-separated blobs")
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(rows) {
		t.Errorf("sizes sum to %d, want %d", total, len(rows))
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	rows, _ := blobs(r, 30, [][]float64{{0, 0}, {5, 5}}, 1)
	m := matrixOf(t, rows)
	a, _ := KMeans(m, KMeansConfig{K: 2, Seed: 7})
	b, _ := KMeans(m, KMeansConfig{K: 2, Seed: 7})
	if !reflect.DeepEqual(a.Labels, b.Labels) || a.Inertia != b.Inertia {
		t.Error("same seed produced different results")
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	rows, _ := blobs(r, 40, [][]float64{{0, 0}, {6, 6}, {-6, 6}}, 1)
	m := matrixOf(t, rows)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 3, 6, 12} {
		res, err := KMeans(m, KMeansConfig{K: k, Seed: 1, Restarts: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-9 {
			t.Errorf("inertia increased at k=%d: %v > %v", k, res.Inertia, prev)
		}
		prev = res.Inertia
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, err := KMeans(matrixOf(t, [][]float64{{1}}), KMeansConfig{K: 2}); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KMeans(matrixOf(t, [][]float64{{1}, {2}}), KMeansConfig{K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, _, err := KMeansWarm(matrixOf(t, [][]float64{{1}}), KMeansConfig{K: 2}, nil); err == nil {
		t.Error("warm k > n accepted")
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	rows := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := KMeans(matrixOf(t, rows), KMeansConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("identical points give inertia %v, want 0", res.Inertia)
	}
}

func TestSilhouetteSeparatedVsOverlapping(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	// Well separated: silhouette near 1.
	rows, truth := blobs(r, 30, [][]float64{{0, 0}, {20, 20}}, 0.5)
	s, err := Silhouette(matrixOf(t, rows), truth, Euclidean, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Errorf("separated silhouette = %v, want > 0.9", s)
	}
	// Overlapping: silhouette low.
	rows2, truth2 := blobs(r, 30, [][]float64{{0, 0}, {0.5, 0.5}}, 2)
	s2, _ := Silhouette(matrixOf(t, rows2), truth2, Euclidean, 0)
	if s2 > 0.4 {
		t.Errorf("overlapping silhouette = %v, want < 0.4", s2)
	}
}

func TestSilhouetteSampledApproximatesExact(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	rows, truth := blobs(r, 100, [][]float64{{0, 0}, {10, 0}, {5, 8}}, 1)
	m := matrixOf(t, rows)
	exact, _ := Silhouette(m, truth, Euclidean, 0)
	sampled, _ := SilhouetteSampled(m, truth, Euclidean, 60, 1, 0)
	if math.Abs(exact-sampled) > 0.1 {
		t.Errorf("sampled %v vs exact %v", sampled, exact)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	if _, err := Silhouette(matrixOf(t, [][]float64{{1}, {2}}), []int{0, 0}, Euclidean, 0); err == nil {
		t.Error("single cluster accepted")
	}
	if _, err := Silhouette(matrixOf(t, [][]float64{{1}}), []int{0, 1}, Euclidean, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Silhouette(matrixOf(t, [][]float64{{1}, {2}}), []int{0, -1}, Euclidean, 0); err == nil {
		t.Error("negative label accepted")
	}
}

func TestSweepK(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 8))
	rows, _ := blobs(r, 40, [][]float64{{0, 0}, {10, 10}, {-10, 10}}, 0.6)
	res, err := SweepK(matrixOf(t, rows), []int{2, 3, 4, 5}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("sweep results = %d", len(res))
	}
	// The true k=3 must win the silhouette comparison.
	best := res[0]
	for _, sr := range res {
		if sr.Silhouette > best.Silhouette {
			best = sr
		}
	}
	if best.K != 3 {
		t.Errorf("silhouette sweep picked k=%d, want 3", best.K)
	}
	for _, sr := range res {
		if sr.AvgSize != float64(len(rows))/float64(sr.K) {
			t.Errorf("avg size wrong for k=%d", sr.K)
		}
		if sr.MinSize < 0 {
			t.Errorf("min size negative for k=%d", sr.K)
		}
	}
}

func BenchmarkKMeansUsers(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	rows, _ := blobs(r, 2000, [][]float64{{0, 0, 0, 0, 0, 1}, {0, 1, 0, 0, 0, 0}, {1, 0, 0, 0, 0, 0}}, 0.1)
	m := matrixOf(b, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(m, KMeansConfig{K: 12, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgglomerativeStates(b *testing.B) {
	r := rand.New(rand.NewPCG(2, 2))
	rows := make([][]float64, 52)
	for i := range rows {
		rows[i] = randDist(r, 6)
	}
	m, _ := PairwiseMatrix(rows, Bhattacharyya, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Agglomerative(m, AverageLinkage); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWardLinkageRecoversBlobs(t *testing.T) {
	r := rand.New(rand.NewPCG(12, 12))
	rows, truth := blobs(r, 25, [][]float64{{0, 0}, {12, 0}, {0, 12}}, 1)
	m, _ := PairwiseMatrix(rows, Euclidean, 0)
	dg, err := Agglomerative(m, WardLinkage)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dg.Cut(3)
	if err != nil {
		t.Fatal(err)
	}
	if !labelsMatch(labels, truth) {
		t.Error("ward linkage failed to recover 3 blobs")
	}
	// Merge heights monotone (Ward is reducible).
	hs := dg.Heights()
	for i := 1; i < len(hs); i++ {
		if hs[i] < hs[i-1]-1e-9 {
			t.Errorf("ward heights decreasing at %d: %v < %v", i, hs[i], hs[i-1])
		}
	}
}

func TestWardMatchesKnownThreePoint(t *testing.T) {
	// Points 0, 1 at distance 1; point 2 at distance 10 from both.
	// After merging {0,1}: Ward distance to {2} =
	// sqrt((2·100 + 2·100 − 1·1)/3) = sqrt(399/3) = sqrt(133).
	m := [][]float64{
		{0, 1, 10},
		{1, 0, 10},
		{10, 10, 0},
	}
	dg, err := Agglomerative(m, WardLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg.Merges) != 2 {
		t.Fatalf("merges = %d", len(dg.Merges))
	}
	if !approx(dg.Merges[0].Height, 1, 1e-12) {
		t.Errorf("first merge height = %v, want 1", dg.Merges[0].Height)
	}
	want := math.Sqrt(399.0 / 3.0)
	if !approx(dg.Merges[1].Height, want, 1e-9) {
		t.Errorf("ward merge height = %v, want %v", dg.Merges[1].Height, want)
	}
}

func TestLinkageNames(t *testing.T) {
	for _, l := range []Linkage{AverageLinkage, SingleLinkage, CompleteLinkage, WardLinkage} {
		if l.String() == "linkage(?)" {
			t.Errorf("linkage %d unnamed", int(l))
		}
	}
}
