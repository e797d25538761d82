package cluster

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// handWorkedDist is a 7-item fixture with all-distinct distances: three
// tight pairs {0,1}, {2,3}, {4,5}, and item 6 close to {4,5}.
func handWorkedDist() [][]float64 {
	upper := [7][7]float64{
		0: {1: 2, 2: 13, 3: 15, 4: 24, 5: 26, 6: 40},
		1: {2: 11, 3: 17, 4: 22, 5: 28, 6: 42},
		2: {3: 3, 4: 20, 5: 30, 6: 36},
		3: {4: 18, 5: 33, 6: 38},
		4: {5: 5, 6: 8},
		5: {6: 10},
	}
	d := make([][]float64, 7)
	for i := range d {
		d[i] = make([]float64, 7)
	}
	for i := range d {
		for j := i + 1; j < 7; j++ {
			d[i][j], d[j][i] = upper[i][j], upper[i][j]
		}
	}
	return d
}

// TestAgglomerativeHandWorkedAverageLinkage checks average linkage
// (UPGMA) against merges worked by hand on handWorkedDist. The average
// distance between clusters X and Y is the mean of d(x, y) over x ∈ X,
// y ∈ Y:
//
//  1. {0,1} at 2                      → cluster 7
//  2. {2,3} at 3                      → cluster 8
//     (then d(7,8) = (13+15+11+17)/4 = 14)
//  3. {4,5} at 5                      → cluster 9
//     (d(9,6) = (8+10)/2 = 9; d(7,9) = 100/4 = 25; d(8,9) = 101/4 = 25.25)
//  4. {9,6} at 9                      → cluster 10
//  5. {7,8} at 14                     → cluster 11
//  6. {11,10} at 357/12 = 29.75       → cluster 12
//     (357 is the sum of the twelve distances between {0,1,2,3} and
//     {4,5,6}: 90 + 92 + 86 + 89)
func TestAgglomerativeHandWorkedAverageLinkage(t *testing.T) {
	dg, err := Agglomerative(handWorkedDist(), AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	want := []Merge{
		{0, 1, 2}, {2, 3, 3}, {4, 5, 5}, {9, 6, 9}, {7, 8, 14}, {11, 10, 29.75},
	}
	if len(dg.Merges) != len(want) {
		t.Fatalf("%d merges, want %d", len(dg.Merges), len(want))
	}
	for i, w := range want {
		m := dg.Merges[i]
		if min(m.A, m.B) != min(w.A, w.B) || max(m.A, m.B) != max(w.A, w.B) ||
			math.Abs(m.Height-w.Height) > 1e-12 {
			t.Errorf("merge %d = %+v, want %+v", i, m, w)
		}
	}

	wantCut := map[int][]int{
		7: {0, 1, 2, 3, 4, 5, 6},
		6: {0, 0, 1, 2, 3, 4, 5},
		5: {0, 0, 1, 1, 2, 3, 4},
		4: {0, 0, 1, 1, 2, 2, 3},
		3: {0, 0, 1, 1, 2, 2, 2},
		2: {0, 0, 0, 0, 1, 1, 1},
		1: {0, 0, 0, 0, 0, 0, 0},
	}
	for k := 1; k <= 7; k++ {
		labels, err := dg.Cut(k)
		if err != nil {
			t.Fatalf("Cut(%d): %v", k, err)
		}
		if !slices.Equal(labels, wantCut[k]) {
			t.Errorf("Cut(%d) = %v, want %v", k, labels, wantCut[k])
		}
	}
}

// TestAgglomerativePermutationInvariantHeights relabels the items of a
// distance matrix: the merge heights, sorted, must not change, for the
// hand-worked fixture and for random Euclidean points.
func TestAgglomerativePermutationInvariantHeights(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	points := make([][]float64, 20)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	random := make([][]float64, len(points))
	for i := range random {
		random[i] = make([]float64, len(points))
		for j := range random[i] {
			random[i][j] = Euclidean(points[i], points[j])
		}
	}
	for name, dist := range map[string][][]float64{"hand-worked": handWorkedDist(), "random": random} {
		base := sortedHeights(t, dist)
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(len(dist))
			pd := make([][]float64, len(dist))
			for i := range pd {
				pd[i] = make([]float64, len(dist))
				for j := range pd[i] {
					pd[i][j] = dist[perm[i]][perm[j]]
				}
			}
			got := sortedHeights(t, pd)
			for i := range base {
				if math.Abs(got[i]-base[i]) > 1e-12*math.Max(1, base[i]) {
					t.Fatalf("%s, permutation %v: heights %v, want %v", name, perm, got, base)
				}
			}
		}
	}
}

func sortedHeights(t *testing.T, dist [][]float64) []float64 {
	t.Helper()
	dg, err := Agglomerative(dist, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	hs := dg.Heights()
	slices.Sort(hs)
	return hs
}
