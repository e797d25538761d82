// Package cluster implements the two clustering algorithms the paper uses
// — agglomerative hierarchical clustering (Figure 6, states) and K-Means
// (Figure 7, users) — together with the distance metrics they need. The
// paper clusters discrete probability distributions (rows of the
// characterization matrix K), for which it argues the Bhattacharyya
// distance is better suited than Euclidean; both are provided, along with
// Hellinger and Jensen–Shannon for the ablation benchmarks.
package cluster

import (
	"fmt"
	"math"
)

// Distance computes the dissimilarity of two equal-length vectors. All
// implementations in this package are symmetric and zero on identical
// inputs, and panic when the vectors differ in length — a silent
// truncation (or index panic deep in the loop) would otherwise turn a
// caller's shape bug into a wrong distance.
type Distance func(a, b []float64) float64

// checkLens panics with a diagnosable message on mismatched vector
// lengths. Every exported Distance starts with it.
func checkLens(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cluster: distance over mismatched vector lengths %d vs %d", len(a), len(b)))
	}
}

// Euclidean is the L2 distance.
func Euclidean(a, b []float64) float64 {
	checkLens(a, b)
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SquaredEuclidean is the L2 distance squared (K-Means inertia metric).
func SquaredEuclidean(a, b []float64) float64 {
	checkLens(a, b)
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// bhattCoeff returns the Bhattacharyya coefficient Σ√(p_i·q_i), clamped
// to [0, 1] against floating-point drift.
func bhattCoeff(p, q []float64) float64 {
	checkLens(p, q)
	bc := 0.0
	for i := range p {
		if p[i] > 0 && q[i] > 0 {
			bc += math.Sqrt(p[i] * q[i])
		}
	}
	if bc > 1 {
		bc = 1
	}
	return bc
}

// Bhattacharyya is the Bhattacharyya distance −ln(BC) between two discrete
// probability distributions. Disjoint supports give +Inf; identical
// distributions give 0. The paper uses it as the affinity for clustering
// states (citing Kailath 1967).
func Bhattacharyya(p, q []float64) float64 {
	bc := bhattCoeff(p, q)
	if bc == 0 {
		return math.Inf(1)
	}
	return -math.Log(bc)
}

// Hellinger is the Hellinger distance √(1−BC), a bounded ([0,1]) metric
// relative of Bhattacharyya.
func Hellinger(p, q []float64) float64 {
	return math.Sqrt(1 - bhattCoeff(p, q))
}

// JensenShannon is the Jensen–Shannon divergence (base-2 logarithm,
// bounded [0,1]) between two discrete distributions.
func JensenShannon(p, q []float64) float64 {
	checkLens(p, q)
	kl := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			if a[i] > 0 && b[i] > 0 {
				s += a[i] * math.Log2(a[i]/b[i])
			}
		}
		return s
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	return kl(p, m)/2 + kl(q, m)/2
}

// PairwiseMatrix computes the full symmetric distance matrix of the
// rows across workers goroutines (0 = GOMAXPROCS). The returned rows
// share one flat backing array; only the strict upper triangle is
// computed (each row owned by one worker, so the pass is deterministic
// for any worker count) and then mirrored.
func PairwiseMatrix(rows [][]float64, d Distance, workers int) ([][]float64, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no rows")
	}
	w := len(rows[0])
	for i, r := range rows {
		if len(r) != w {
			return nil, fmt.Errorf("cluster: row %d has %d cols, want %d", i, len(r), w)
		}
	}
	backing := make([]float64, n*n)
	m := make([][]float64, n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	nw := resolveWorkers(workers)
	// Upper triangle: row i owns cells (i, j>i). Rows are claimed from a
	// shared counter, which also balances the shrinking row lengths.
	parallelChunks(n, nw, func(i int) {
		ri, mi := rows[i], m[i]
		for j := i + 1; j < n; j++ {
			mi[j] = d(ri, rows[j])
		}
	})
	// Mirror into the lower triangle, row-parallel again.
	parallelChunks(n, nw, func(j int) {
		mj := m[j]
		for i := 0; i < j; i++ {
			mj[i] = m[i][j]
		}
	})
	return m, nil
}
