package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"

	"donorsense/internal/mat"
)

// silhouetteChunkPoints is the fixed sample-chunk granularity of the
// silhouette pass. Like assignChunkRows it is independent of the worker
// count, so the decomposition is identical for any parallelism.
const silhouetteChunkPoints = 64

// Silhouette computes the mean silhouette coefficient of a labelling of
// the rows of m under the given distance, without copying the data,
// fanned out across workers (0 = GOMAXPROCS). Results are bit-identical
// for every worker count. For large n, SilhouetteSampled is cheaper.
func Silhouette(m *mat.Matrix, labels []int, d Distance, workers int) (float64, error) {
	return silhouette(m, labels, d, nil, workers)
}

// SilhouetteSampled estimates the silhouette coefficient from a random
// sample of at most sampleSize points (deterministic for a given seed).
// The paper reports a silhouette for 72k users; the exact computation is
// O(n²) and needs sampling at that scale.
func SilhouetteSampled(m *mat.Matrix, labels []int, d Distance, sampleSize int, seed uint64, workers int) (float64, error) {
	if sampleSize <= 0 || sampleSize >= m.Rows() {
		return silhouette(m, labels, d, nil, workers)
	}
	r := rand.New(rand.NewPCG(seed, 0x51))
	idx := r.Perm(m.Rows())[:sampleSize]
	return silhouette(m, labels, d, idx, workers)
}

// silhouette computes the mean silhouette over the given sample indices
// (nil means all points). Distances a(i)/b(i) are computed against the
// full dataset, only the averaging is sampled.
//
// The pass is a chunked parallel sweep: each sample chunk owns its
// points, accumulates per-cluster distance sums (O(workers·k) scratch)
// over all n rows in ascending order, and writes per-point coefficients
// into its own slots; the final mean folds those slots in sample order.
// Every float operation therefore happens in the same order for any
// worker count.
func silhouette(m *mat.Matrix, labels []int, d Distance, sample []int, workers int) (float64, error) {
	n, dim := m.Rows(), m.Cols()
	data := m.Data()
	if n != len(labels) {
		return 0, fmt.Errorf("cluster: %d rows, %d labels", n, len(labels))
	}
	k := 0
	for _, l := range labels {
		if l < 0 {
			return 0, fmt.Errorf("cluster: negative label")
		}
		if l+1 > k {
			k = l + 1
		}
	}
	if k < 2 {
		return 0, fmt.Errorf("cluster: silhouette needs at least 2 clusters")
	}
	counts := make([]int, k)
	for _, l := range labels {
		counts[l]++
	}

	indices := sample
	if indices == nil {
		indices = make([]int, n)
		for i := range indices {
			indices[i] = i
		}
	}

	vals := make([]float64, len(indices))
	valid := make([]bool, len(indices))
	nChunks := (len(indices) + silhouetteChunkPoints - 1) / silhouetteChunkPoints
	parallelChunks(nChunks, resolveWorkers(workers), func(c int) {
		sums := make([]float64, k)
		lo := c * silhouetteChunkPoints
		hi := lo + silhouetteChunkPoints
		if hi > len(indices) {
			hi = len(indices)
		}
		for si := lo; si < hi; si++ {
			i := indices[si]
			if counts[labels[i]] < 2 {
				continue // silhouette undefined for singleton's member
			}
			for c := range sums {
				sums[c] = 0
			}
			ri := data[i*dim : i*dim+dim]
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				sums[labels[j]] += d(ri, data[j*dim:j*dim+dim])
			}
			a := sums[labels[i]] / float64(counts[labels[i]]-1)
			b := math.Inf(1)
			for c := 0; c < k; c++ {
				if c == labels[i] || counts[c] == 0 {
					continue
				}
				if v := sums[c] / float64(counts[c]); v < b {
					b = v
				}
			}
			valid[si] = true
			if den := math.Max(a, b); den > 0 {
				vals[si] = (b - a) / den
			}
		}
	})
	sum := 0.0
	used := 0
	for si, ok := range valid {
		if !ok {
			continue
		}
		sum += vals[si]
		used++
	}
	if used == 0 {
		return 0, fmt.Errorf("cluster: no valid silhouette points")
	}
	return sum / float64(used), nil
}

// SweepResult summarizes one k in a model-selection sweep.
type SweepResult struct {
	K          int
	Inertia    float64
	Silhouette float64
	AvgSize    float64
	MinSize    int
}

// SweepK runs K-Means for each k in ks over the rows of m and reports
// the selection metrics the paper compares (inertia, silhouette
// coefficient, average cluster size). silhouetteSample bounds the
// silhouette computation (0 = exact). The candidate ks are independent
// model fits, so they run concurrently across workers (0 = GOMAXPROCS);
// each k writes only its own result slot, keeping the sweep
// deterministic for any worker count.
func SweepK(m *mat.Matrix, ks []int, seed uint64, silhouetteSample int, workers int) ([]SweepResult, error) {
	out := make([]SweepResult, len(ks))
	errs := make([]error, len(ks))
	w := resolveWorkers(workers)
	parallelChunks(len(ks), w, func(i int) {
		k := ks[i]
		res, err := KMeans(m, KMeansConfig{K: k, Seed: seed, Restarts: 2, Workers: workers})
		if err != nil {
			errs[i] = fmt.Errorf("cluster: sweep k=%d: %w", k, err)
			return
		}
		sil, err := SilhouetteSampled(m, res.Labels, Euclidean, silhouetteSample, seed, workers)
		if err != nil {
			errs[i] = fmt.Errorf("cluster: sweep silhouette k=%d: %w", k, err)
			return
		}
		minSize := res.Sizes[0]
		for _, s := range res.Sizes {
			if s < minSize {
				minSize = s
			}
		}
		out[i] = SweepResult{
			K:          k,
			Inertia:    res.Inertia,
			Silhouette: sil,
			AvgSize:    float64(m.Rows()) / float64(k),
			MinSize:    minSize,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
