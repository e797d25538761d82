package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"donorsense/internal/mat"
)

// warmTestData builds n×dim rows of random simplex-ish points.
func warmTestData(rng *rand.Rand, n, dim int) *mat.Dense {
	m := mat.New(n, dim)
	data := m.Data()
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
	}
	return m
}

// lloydFixedPoint asserts a result is a converged Lloyd solution on m:
// every label is the exact nearest centroid, and each centroid is the
// mean of its members to within tol.
func lloydFixedPoint(t *testing.T, m *mat.Dense, res *KMeansResult, tol float64) {
	t.Helper()
	n, dim := m.Rows(), m.Cols()
	data := m.Data()
	pos := make([]float64, 0, res.K*dim)
	for _, c := range res.Centroids {
		pos = append(pos, c...)
	}
	sums := make([]float64, res.K*dim)
	counts := make([]int, res.K)
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		bi, _, _ := closestTwoGeneric(row, pos, res.K, dim)
		if bi != res.Labels[i] {
			t.Fatalf("point %d labeled %d, nearest centroid %d", i, res.Labels[i], bi)
		}
		counts[bi]++
		addTo(sums[bi*dim:(bi+1)*dim], row)
	}
	for c := 0; c < res.K; c++ {
		if counts[c] == 0 {
			t.Fatalf("cluster %d empty at convergence", c)
		}
		mean := make([]float64, dim)
		inv := 1 / float64(counts[c])
		for j := range mean {
			mean[j] = sums[c*dim+j] * inv
		}
		if d := sqDistTo(mean, pos[c*dim:(c+1)*dim]); d > tol {
			t.Fatalf("centroid %d off its member mean by %g", c, d)
		}
	}
}

// TestKMeansWarmColdPathIdentical asserts the cold fallback inside
// KMeansDenseWarm is bit-identical to a direct KMeansDense call.
func TestKMeansWarmColdPathIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := warmTestData(rng, 600, 6)
	cfg := KMeansConfig{K: 5, Seed: 11, Restarts: 2, Workers: 2}

	want, err := KMeansDense(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ws, resumed, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("nil warm state reported resumed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cold path through KMeansDenseWarm differs from KMeansDense")
	}
	for i, l := range ws.Labels {
		if int(l) != want.Labels[i] {
			t.Fatalf("captured label %d = %d, result %d", i, l, want.Labels[i])
		}
	}
}

// TestKMeansWarmUnchangedData asserts resuming on unchanged data keeps
// the partition, converges immediately, and is itself a fixed point:
// resuming twice returns bit-identical results.
func TestKMeansWarmUnchangedData(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := warmTestData(rng, 800, 6)
	cfg := KMeansConfig{K: 6, Seed: 3, Restarts: 2, Workers: 2}

	cold, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm1, ws1, resumed, err := KMeansDenseWarm(m, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("compatible warm state not resumed")
	}
	if warm1.Iterations > 2 {
		t.Fatalf("unchanged-data resume took %d iterations", warm1.Iterations)
	}
	if !reflect.DeepEqual(warm1.Labels, cold.Labels) {
		t.Fatal("unchanged-data resume changed the partition")
	}
	if rel := math.Abs(warm1.Inertia-cold.Inertia) / cold.Inertia; rel > 1e-9 {
		t.Fatalf("inertia drifted by %g on unchanged data", rel)
	}
	lloydFixedPoint(t, m, warm1, 1e-7)

	warm2, _, _, err := KMeansDenseWarm(m, cfg, ws1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm2, warm1) {
		t.Fatal("second resume not bit-identical to first (not a fixed point)")
	}
}

// TestKMeansWarmDirtyRows perturbs a fraction of rows, marks them dirty,
// and asserts the resumed run reaches a genuine Lloyd fixed point on the
// new data while clean points' bounds stay usable.
func TestKMeansWarmDirtyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := warmTestData(rng, 1000, 6)
	cfg := KMeansConfig{K: 7, Seed: 19, Restarts: 2, Workers: 2}

	_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Perturb 5% of rows and one brand-new-looking row pattern.
	data := m.Data()
	dim := m.Cols()
	for i := 0; i < m.Rows(); i += 20 {
		row := data[i*dim : (i+1)*dim]
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] /= sum
		}
		ws.Labels[i] = -1
	}

	warm, ws2, resumed, err := KMeansDenseWarm(m, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("dirty-row warm state not resumed")
	}
	lloydFixedPoint(t, m, warm, 1e-7)

	// The returned state must itself resume to the identical result.
	again, _, _, err := KMeansDenseWarm(m, cfg, ws2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Labels, warm.Labels) {
		t.Fatal("re-resume moved labels after convergence")
	}
}

// TestKMeansWarmIncompatibleFallsBack asserts mismatched state (wrong
// row count, wrong k) silently cold-starts.
func TestKMeansWarmIncompatibleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := warmTestData(rng, 300, 6)
	cfg := KMeansConfig{K: 4, Seed: 2, Workers: 1}

	_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row count changed (e.g. users entered the matrix): fall back cold.
	grown := warmTestData(rng, 301, 6)
	_, _, resumed, err := KMeansDenseWarm(grown, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("row-count-mismatched state resumed")
	}
	// k changed: fall back cold.
	cfg2 := cfg
	cfg2.K = 5
	_, _, resumed, err = KMeansDenseWarm(m, cfg2, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("k-mismatched state resumed")
	}
}

// TestPairwiseCacheBitIdentical asserts a cache refreshed through
// arbitrary dirty patterns always matches PairwiseMatrixWorkers from
// scratch, bit for bit, and that clean refreshes skip recomputation and
// dendrogram reruns.
func TestPairwiseCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 30
	m := warmTestData(rng, n, 6)
	rows := make([][]float64, n)
	keys := make([]string, n)
	for i := range rows {
		rows[i] = m.Data()[i*6 : (i+1)*6]
		keys[i] = string(rune('A'+i/26)) + string(rune('a'+i%26))
	}

	pc := &PairwiseCache{}
	dirtySet := map[string]bool{}
	dirty := func(k string) bool { return dirtySet[k] }

	check := func(rows [][]float64, keys []string) [][]float64 {
		t.Helper()
		got, _, err := pc.Refresh(rows, keys, dirty, Bhattacharyya, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PairwiseMatrixWorkers(rows, Bhattacharyya, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("d[%d][%d] = %g want %g", i, j, got[i][j], want[i][j])
				}
			}
		}
		return got
	}

	check(rows, keys)
	d1, err := pc.Dendrogram(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}

	// Clean refresh: same object back, dendrogram reused.
	d, changed, err := pc.Refresh(rows, keys, dirty, Bhattacharyya, 2)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("clean refresh reported changed")
	}
	if &d[0][0] != &pc.d[0][0] {
		t.Fatal("clean refresh rebuilt the matrix")
	}
	d2, err := pc.Dendrogram(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("clean refresh reran the dendrogram")
	}

	// Dirty a few rows, change their data.
	for _, i := range []int{3, 17} {
		rows[i][0], rows[i][1] = rows[i][1], rows[i][0]
		dirtySet[keys[i]] = true
	}
	check(rows, keys)
	dirtySet = map[string]bool{}
	d3, err := pc.Dendrogram(AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	want3, err := Agglomerative(pc.d, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d3, want3) {
		t.Fatal("post-change dendrogram differs from scratch")
	}

	// Drop a row and add a new key (state set changes between epochs).
	rows2 := append(append([][]float64{}, rows[:10]...), rows[11:]...)
	keys2 := append(append([]string{}, keys[:10]...), keys[11:]...)
	newRow := []float64{0.5, 0.1, 0.1, 0.1, 0.1, 0.1}
	rows2 = append(rows2, newRow)
	keys2 = append(keys2, "ZZ")
	check(rows2, keys2)
}

// TestKMeansWarmInvalidStateFallsBack asserts a state that fits the data
// but is not internally consistent — a label out of range, a NaN
// centroid, a NaN, infinite, or negative bound — cold-starts instead of
// resuming or failing, and that Validate names each defect.
func TestKMeansWarmInvalidStateFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := warmTestData(rng, 400, 6)
	cfg := KMeansConfig{K: 4, Seed: 5, Workers: 1}
	want, err := KMeansDense(m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	breakers := map[string]func(ws *KMeansWarmState){
		"label ≥ k":         func(ws *KMeansWarmState) { ws.Labels[7] = int32(ws.K) },
		"label < -1":        func(ws *KMeansWarmState) { ws.Labels[7] = -2 },
		"NaN centroid":      func(ws *KMeansWarmState) { ws.Centroids[3] = math.NaN() },
		"infinite centroid": func(ws *KMeansWarmState) { ws.Centroids[3] = math.Inf(-1) },
		"NaN upper":         func(ws *KMeansWarmState) { ws.Upper[9] = math.NaN() },
		"infinite upper":    func(ws *KMeansWarmState) { ws.Upper[9] = math.Inf(1) },
		"negative lower":    func(ws *KMeansWarmState) { ws.Lower[9] = -0.5 },
		"NaN lower":         func(ws *KMeansWarmState) { ws.Lower[9] = math.NaN() },
		"infinite lower":    func(ws *KMeansWarmState) { ws.Lower[9] = math.Inf(1) },
	}
	for name, breakState := range breakers {
		_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A decoded state carries only the exported fields.
		bad := &KMeansWarmState{K: ws.K, Dim: ws.Dim, Centroids: ws.Centroids, Labels: ws.Labels, Upper: ws.Upper, Lower: ws.Lower}
		breakState(bad)
		if bad.Validate() == nil {
			t.Fatalf("%s: Validate accepted the state", name)
		}
		got, next, resumed, err := KMeansDenseWarm(m, cfg, bad)
		if err != nil {
			t.Fatalf("%s: %v (want a cold-start fallback)", name, err)
		}
		if resumed {
			t.Fatalf("%s: invalid state resumed", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: fallback differs from a cold run", name)
		}
		if next.Validate() != nil {
			t.Fatalf("%s: fallback captured an invalid state", name)
		}
	}

	// Shape defects Validate must refuse on its own.
	_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]*KMeansWarmState{
		"k < 1":            {K: 0, Dim: 6},
		"dim < 1":          {K: 4, Dim: 0},
		"centroid count":   {K: 4, Dim: 6, Centroids: ws.Centroids[:5]},
		"short upper":      {K: 4, Dim: 6, Centroids: ws.Centroids, Labels: ws.Labels, Upper: ws.Upper[1:], Lower: ws.Lower},
		"short lower":      {K: 4, Dim: 6, Centroids: ws.Centroids, Labels: ws.Labels, Upper: ws.Upper, Lower: ws.Lower[1:]},
		"k×dim disagrees":  {K: 3, Dim: 6, Centroids: ws.Centroids, Labels: ws.Labels, Upper: ws.Upper, Lower: ws.Lower},
		"dim×k disagrees":  {K: 4, Dim: 5, Centroids: ws.Centroids, Labels: ws.Labels, Upper: ws.Upper, Lower: ws.Lower},
		"label beyond k=3": {K: 3, Dim: 8, Centroids: ws.Centroids, Labels: []int32{3}, Upper: []float64{0}, Lower: []float64{0}},
	} {
		if bad.Validate() == nil {
			t.Fatalf("%s: Validate accepted the state", name)
		}
	}
	if err := ws.Validate(); err != nil {
		t.Fatalf("captured state rejected: %v", err)
	}
}

// TestKMeansWarmOneCluster asserts k = 1 states, whose lower bounds are
// +Inf (there is no second-closest centroid), validate and resume.
func TestKMeansWarmOneCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := warmTestData(rng, 200, 6)
	cfg := KMeansConfig{K: 1, Seed: 1, Workers: 1}
	_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored := &KMeansWarmState{K: ws.K, Dim: ws.Dim, Centroids: ws.Centroids, Labels: ws.Labels, Upper: ws.Upper, Lower: ws.Lower}
	if err := restored.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, resumed, err := KMeansDenseWarm(m, cfg, restored); err != nil || !resumed {
		t.Fatalf("k=1 state: resumed=%v err=%v", resumed, err)
	}
}

// TestKMeansWarmUnrepresentableFallsBack checks data the exact moments
// cannot hold (here 1e-30, whose low bits lie below 2^-128): a cold run
// captures no warm state, and a resume meeting such a row falls back to
// the cold path — bit-identical to KMeansDense — and returns no state.
// The same holds for a row that only turns unrepresentable after the
// state was captured.
func TestKMeansWarmUnrepresentableFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cfg := KMeansConfig{K: 4, Seed: 3, Restarts: 2, Workers: 2}

	bad := warmTestData(rng, 500, 6)
	bad.Data()[7*6+2] = 1e-30
	want, err := KMeansDense(bad, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, ws, resumed, err := KMeansDenseWarm(bad, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed || ws != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("cold run over unrepresentable data: resumed=%v state=%v, same as KMeansDense=%v", resumed, ws != nil, reflect.DeepEqual(got, want))
	}

	m := warmTestData(rng, 500, 6)
	_, ws, _, err = KMeansDenseWarm(m, cfg, nil)
	if err != nil || ws == nil {
		t.Fatalf("capture over representable data: state %v, %v", ws != nil, err)
	}
	row := m.Data()[11*6 : 12*6]
	ws.Unassign(11, row)
	row[4] = 1e-30
	want, err = KMeansDense(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, next, resumed, err := KMeansDenseWarm(m, cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if resumed || next != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("resume over an unrepresentable row: resumed=%v state=%v, same as KMeansDense=%v", resumed, next != nil, reflect.DeepEqual(got, want))
	}
}

// TestKMeansWarmMomentInertia checks a resumed run's inertia, served
// from the carried moments, against a direct sum of squared distances
// over the same labels and centroids, and the moments against a fresh
// exact re-sum of the labels, across resumes after small changes. A
// loose tolerance stops the loop early, so the final label check moves
// rows between clusters. At the default tolerance the result must also
// be a converged Lloyd fixed point.
func TestKMeansWarmMomentInertia(t *testing.T) {
	for _, tol := range []float64{0, 1e-3} {
		rng := rand.New(rand.NewSource(13))
		m := warmTestData(rng, 3000, 6)
		data := m.Data()
		cfg := KMeansConfig{K: 6, Seed: 5, Restarts: 2, Workers: 3, Tolerance: tol}
		_, ws, _, err := KMeansDenseWarm(m, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var res *KMeansResult
		for step := 0; step < 50; step++ {
			for j := 0; j < 20; j++ {
				i := rng.Intn(3000)
				ws.Unassign(i, data[i*6:(i+1)*6])
				copy(data[i*6:(i+1)*6], warmTestData(rng, 1, 6).Data())
			}
			var resumed bool
			if res, ws, resumed, err = KMeansDenseWarm(m, cfg, ws); err != nil || !resumed {
				t.Fatalf("tol %g step %d: resumed=%v, %v", tol, step, resumed, err)
			}
			direct := 0.0
			sums, sq := make([]mat.Exact, 6*6), make([]mat.Exact, 6)
			for i, l := range res.Labels {
				row := data[i*6 : (i+1)*6]
				direct += sqDistTo(row, res.Centroids[l])
				if err := foldMoments(sums[l*6:(l+1)*6], &sq[l], row, 1); err != nil {
					t.Fatal(err)
				}
			}
			if math.Abs(res.Inertia-direct) > 1e-9*direct {
				t.Fatalf("tol %g step %d: moment inertia %v, direct %v", tol, step, res.Inertia, direct)
			}
			for i := range sums {
				if sums[i].Rat().Cmp(ws.sums[i].Rat()) != 0 {
					t.Fatalf("tol %g step %d: carried sum %d differs from a re-sum", tol, step, i)
				}
			}
			for c := range sq {
				if sq[c].Rat().Cmp(ws.sqNorms[c].Rat()) != 0 {
					t.Fatalf("tol %g step %d: carried squared norms of cluster %d differ from a re-sum", tol, step, c)
				}
			}
		}
		if tol == 0 {
			lloydFixedPoint(t, m, res, 1e-9)
		}
	}
}
