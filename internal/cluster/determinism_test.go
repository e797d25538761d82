package cluster

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"donorsense/internal/mat"
)

// detCorpus is the shared seeded 10k×6 corpus for the bit-identity
// tests (paper-scale shape: 10k users × 6 organs).
func detCorpus(t testing.TB) ([][]float64, int) {
	t.Helper()
	n := 10000
	if testing.Short() {
		n = 2000
	}
	return benchMatrix(n, 6, 7), n
}

// TestKMeansWorkersBitIdentical is the parallel-determinism contract:
// any worker count must reproduce the sequential run bit for bit —
// centroids, labels, inertia, sizes, iterations. The chunked assignment
// folds its partials in chunk order, so this holds by construction; the
// test guards the construction.
func TestKMeansWorkersBitIdentical(t *testing.T) {
	rows, _ := detCorpus(t)
	base, err := KMeans(rows, KMeansConfig{K: 12, Seed: 3, Restarts: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 8} {
		got, err := KMeans(rows, KMeansConfig{K: 12, Seed: 3, Restarts: 2, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if got.Inertia != base.Inertia {
			t.Fatalf("workers=%d inertia %v, want %v (bit-identical)", w, got.Inertia, base.Inertia)
		}
		if got.Iterations != base.Iterations {
			t.Fatalf("workers=%d iterations %d, want %d", w, got.Iterations, base.Iterations)
		}
		if !reflect.DeepEqual(got.Labels, base.Labels) {
			t.Fatalf("workers=%d labels differ from sequential", w)
		}
		if !reflect.DeepEqual(got.Sizes, base.Sizes) {
			t.Fatalf("workers=%d sizes %v, want %v", w, got.Sizes, base.Sizes)
		}
		for c := range base.Centroids {
			if !reflect.DeepEqual(got.Centroids[c], base.Centroids[c]) {
				t.Fatalf("workers=%d centroid %d differs from sequential", w, c)
			}
		}
	}
}

// TestSweepKWorkersBitIdentical checks the whole model-selection sweep
// (K-Means + sampled silhouette per k) for bit-identity across worker
// counts, including the silhouette coefficients.
func TestSweepKWorkersBitIdentical(t *testing.T) {
	rows, _ := detCorpus(t)
	ks := []int{4, 8, 12}
	base, err := SweepK(rows, ks, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	m, err := denseFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		got, err := SweepKDense(m, ks, 1, 500, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d sweep %+v, want %+v", w, got, base)
		}
	}
}

// TestSilhouetteWorkersBitIdentical checks the exact silhouette pass
// across worker counts.
func TestSilhouetteWorkersBitIdentical(t *testing.T) {
	rows := benchMatrix(1500, 6, 9)
	m, err := denseFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMeansDense(m, KMeansConfig{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := SilhouetteDense(m, res.Labels, Euclidean, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7} {
		got, err := SilhouetteDense(m, res.Labels, Euclidean, w)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("workers=%d silhouette %v, want %v (bit-identical)", w, got, base)
		}
	}
}

// TestPairwiseMatrixWorkersBitIdentical checks the distance matrix pass
// across worker counts.
func TestPairwiseMatrixWorkersBitIdentical(t *testing.T) {
	rows := benchMatrix(300, 6, 11)
	base, err := PairwiseMatrixWorkers(rows, Bhattacharyya, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		got, err := PairwiseMatrixWorkers(rows, Bhattacharyya, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d pairwise matrix differs from sequential", w)
		}
	}
}

// euclideanPointMatrix builds a pairwise Euclidean distance matrix from
// random points — the geometry Ward linkage is defined over.
func euclideanPointMatrix(t *testing.T, n, dim int, seed uint64) [][]float64 {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 0xe))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = r.Float64() * 10
		}
	}
	m, err := PairwiseMatrix(rows, Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNNChainMatchesNaive pits the O(n²) nearest-neighbor-chain
// implementation against the retained O(n³) naive oracle on random
// matrices, for every linkage: merge heights must agree to float
// tolerance, and every dendrogram cut must induce the same partition.
// NN-chain may discover reciprocal pairs in a different order than the
// global-minimum scan, so heights are compared as sorted sequences and
// structure via partitions.
func TestNNChainMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name    string
		linkage Linkage
	}{
		{"single", SingleLinkage},
		{"complete", CompleteLinkage},
		{"average", AverageLinkage},
		{"ward", WardLinkage},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range []int{2, 3, 7, 25, 60} {
				var dist [][]float64
				if tc.linkage == WardLinkage {
					dist = euclideanPointMatrix(t, n, 4, uint64(n))
				} else {
					rows := benchMatrix(n, 6, uint64(n)+100)
					var err error
					dist, err = PairwiseMatrix(rows, Bhattacharyya)
					if err != nil {
						t.Fatal(err)
					}
				}
				fast, err := Agglomerative(dist, tc.linkage)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := agglomerativeNaive(dist, tc.linkage)
				if err != nil {
					t.Fatal(err)
				}
				fh, nh := fast.Heights(), naive.Heights()
				if len(fh) != len(nh) {
					t.Fatalf("n=%d: %d merges, oracle has %d", n, len(fh), len(nh))
				}
				for i := range fh {
					if math.Abs(fh[i]-nh[i]) > 1e-9*(1+math.Abs(nh[i])) {
						t.Fatalf("n=%d merge %d height %v, oracle %v", n, i, fh[i], nh[i])
					}
				}
				for k := 1; k <= n; k += 1 + n/6 {
					fc, err := fast.Cut(k)
					if err != nil {
						t.Fatal(err)
					}
					nc, err := naive.Cut(k)
					if err != nil {
						t.Fatal(err)
					}
					if !labelsMatch(fc, nc) {
						t.Fatalf("n=%d cut k=%d partitions differ from oracle", n, k)
					}
				}
			}
		})
	}
}

// TestDistanceMismatchedLengthsPanic locks the documented panic
// contract of every exported Distance.
func TestDistanceMismatchedLengthsPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Distance
	}{
		{"euclidean", Euclidean},
		{"squared_euclidean", SquaredEuclidean},
		{"bhattacharyya", Bhattacharyya},
		{"hellinger", Hellinger},
		{"jensen_shannon", JensenShannon},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on mismatched lengths", tc.name)
				}
			}()
			tc.d([]float64{1, 2, 3}, []float64{1, 2})
		})
	}
}

// TestConcurrentSweepKRace exercises SweepK from several goroutines at
// once over the same shared matrix — the -race CI target runs this to
// prove the chunked passes only write chunk-owned state.
func TestConcurrentSweepKRace(t *testing.T) {
	rows := benchMatrix(600, 6, 13)
	m, err := denseFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := SweepKDense(m, []int{3, 5}, 1, 200, 4)
			if err == nil && len(res) != 2 {
				err = fmt.Errorf("got %d sweep results, want 2", len(res))
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestKMeansCarriedSumsWorkersBitIdentical drives 1000 warm resumes, each
// after a few rows were taken out of their clusters with Unassign and
// given new data. The exact moments the state carries across resumes
// must still equal a big.Rat re-sum of the final labels exactly, every
// served inertia must be within 1e-9 relative of a direct sum of
// squared distances, and every resume — inertia, iterations, labels,
// moments — must be bit-identical for one worker and for four.
func TestKMeansCarriedSumsWorkersBitIdentical(t *testing.T) {
	const n, dim, refreshes = 5000, 6, 1000
	cfg := KMeansConfig{K: 7, Seed: 4, Restarts: 2}
	type trace struct {
		inertia    float64
		iterations int
		labelSum   int
	}
	run := func(workers int) (*KMeansWarmState, []float64, []trace) {
		r := rand.New(rand.NewPCG(77, 1))
		rows := benchMatrix(n, dim, 9)
		m, err := denseFromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		data := m.Data()
		cfg := cfg
		cfg.Workers = workers
		_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []trace
		for step := 0; step < refreshes; step++ {
			for j := 0; j < 1+r.IntN(12); j++ {
				i := r.IntN(n)
				row := data[i*dim : (i+1)*dim]
				ws.Unassign(i, row)
				copy(row, randDist(r, dim))
			}
			// The counts must account for exactly the labeled rows, or
			// the resume would re-sum instead of carrying.
			labeled, counted := 0, 0
			for _, l := range ws.Labels {
				if l >= 0 {
					labeled++
				}
			}
			for _, c := range ws.counts {
				counted += c
			}
			if labeled != counted {
				t.Fatalf("step %d: %d labeled rows, counts hold %d", step, labeled, counted)
			}
			res, next, resumed, err := KMeansDenseWarm(m, cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !resumed || next != ws {
				t.Fatalf("step %d: resumed=%v, state replaced=%v", step, resumed, next != ws)
			}
			if direct := directInertia(m, res); math.Abs(res.Inertia-direct) > 1e-9*direct {
				t.Fatalf("step %d: moment inertia %v, direct %v", step, res.Inertia, direct)
			}
			tr := trace{inertia: res.Inertia, iterations: res.Iterations}
			for _, l := range res.Labels {
				tr.labelSum = tr.labelSum*31 + l
			}
			out = append(out, tr)
		}
		return ws, data, out
	}

	ws1, data, trace1 := run(1)
	ws4, _, trace4 := run(4)
	if !reflect.DeepEqual(trace1, trace4) {
		t.Fatal("resumes differ between one and four workers")
	}
	if !reflect.DeepEqual(ws1.Labels, ws4.Labels) || !reflect.DeepEqual(ws1.counts, ws4.counts) {
		t.Fatal("carried labels or counts differ between one and four workers")
	}
	if !reflect.DeepEqual(ws1.sums, ws4.sums) || !reflect.DeepEqual(ws1.sqNorms, ws4.sqNorms) {
		t.Fatal("carried moments differ between one and four workers")
	}

	// The oracle: re-sum the final labels from scratch in big.Rat.
	sums := make([]*big.Rat, cfg.K*dim)
	sq := make([]*big.Rat, cfg.K)
	for i := range sums {
		sums[i] = new(big.Rat)
	}
	for c := range sq {
		sq[c] = new(big.Rat)
	}
	counts := make([]int, cfg.K)
	for i, l := range ws1.Labels {
		counts[l]++
		norm := 0.0
		for j, v := range data[i*dim : (i+1)*dim] {
			sums[int(l)*dim+j].Add(sums[int(l)*dim+j], new(big.Rat).SetFloat64(v))
			norm += v * v
		}
		sq[l].Add(sq[l], new(big.Rat).SetFloat64(norm))
	}
	if !reflect.DeepEqual(counts, ws1.counts) {
		t.Fatalf("carried counts %v, re-count %v", ws1.counts, counts)
	}
	for i := range sums {
		if got := ws1.sums[i].Rat(); got.Cmp(sums[i]) != 0 {
			t.Fatalf("carried sum %d is %s, re-summed %s", i, got.FloatString(30), sums[i].FloatString(30))
		}
	}
	for c := range sq {
		if got := ws1.sqNorms[c].Rat(); got.Cmp(sq[c]) != 0 {
			t.Fatalf("carried squared norms of cluster %d are %s, re-summed %s", c, got.FloatString(30), sq[c].FloatString(30))
		}
	}
}

// directInertia is Σ sqDistTo over a result's own labels and centroids.
func directInertia(m *mat.Dense, res *KMeansResult) float64 {
	dim := m.Cols()
	total := 0.0
	for i, l := range res.Labels {
		total += sqDistTo(m.Data()[i*dim:(i+1)*dim], res.Centroids[l])
	}
	return total
}
