package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"

	"donorsense/internal/mat"
)

// KMeansResult is the outcome of one K-Means run.
type KMeansResult struct {
	K          int
	Centroids  [][]float64
	Labels     []int
	Inertia    float64 // sum of squared distances to assigned centroids
	Iterations int
	Sizes      []int // points per cluster
}

// KMeansConfig parameterizes a K-Means run.
type KMeansConfig struct {
	K int
	// MaxIterations bounds Lloyd iterations (default 100).
	MaxIterations int
	// Tolerance stops iteration when no centroid moves more than this
	// (squared distance; default 1e-9).
	Tolerance float64
	// Seed drives the k-means++ initialization.
	Seed uint64
	// Restarts runs the algorithm this many times with different seeds
	// and keeps the lowest-inertia result (default 1).
	Restarts int
	// Workers bounds the concurrency of the assignment pass and of the
	// restarts (0 = GOMAXPROCS). Any worker count produces bit-identical
	// results: the assignment pass reduces over fixed-size row chunks
	// whose partial sums are folded in chunk order, never in scheduling
	// order.
	Workers int
}

// assignChunkRows is the fixed row-chunk granularity of the assignment
// pass. It is deliberately independent of the worker count: the chunk
// decomposition (and therefore every floating-point fold) is identical
// whether one goroutine walks the chunks or eight do.
const assignChunkRows = 1024

// KMeans clusters the rows into cfg.K clusters using k-means++
// initialization and Lloyd's algorithm with Hamerly's triangle-
// inequality pruning. This is the algorithm behind the paper's Figure 7
// user clustering (k = 12, chosen via silhouette / inertia /
// average-cluster-size sweeps). It copies rows into a flat matrix once;
// callers that already hold a *mat.Dense should use KMeansDense, which
// runs zero-copy.
func KMeans(rows [][]float64, cfg KMeansConfig) (*KMeansResult, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("cluster: kmeans on empty data")
	}
	m, err := denseFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("cluster: kmeans: %w", err)
	}
	return KMeansDense(m, cfg)
}

// KMeansDense is KMeans over a flat row-major matrix, without copying
// the data.
func KMeansDense(m *mat.Dense, cfg KMeansConfig) (*KMeansResult, error) {
	n := m.Rows()
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("cluster: kmeans k=%d with n=%d", cfg.K, n)
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	workers := resolveWorkers(cfg.Workers)

	// Restarts are independent runs (each owns its PCG stream), so they
	// run concurrently; each still chunk-parallelizes its assignment
	// pass. The best pick scans attempts in order with a strict <, so
	// the earliest attempt wins inertia ties exactly as a sequential
	// loop would.
	results := make([]*KMeansResult, restarts)
	parallelChunks(restarts, workers, func(attempt int) {
		r := rand.New(rand.NewPCG(cfg.Seed, uint64(attempt)))
		results[attempt] = kmeansOnce(m, cfg.K, maxIter, tol, r, workers)
	})
	best := results[0]
	for _, res := range results[1:] {
		if res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

// kmeansRun is the per-restart state of the pruned Lloyd iteration. All
// per-point slices are chunk-owned during parallel passes; all global
// reductions fold per-chunk partials in chunk index order, making every
// run bit-identical for any worker count.
type kmeansRun struct {
	data    []float64 // n×dim row-major points
	n, dim  int
	k       int
	workers int

	pos    []float64 // k×dim current centroid positions
	oldPos []float64 // k×dim scratch for the previous positions
	sums   []float64 // k×dim running per-cluster vector sums
	counts []int     // points per cluster (maintained incrementally)

	// Exact moments, kept by warm runs only (nil in cold runs): each
	// cluster's vector sum S (k×dim), which sums is rounded from, and the
	// sum Q (k) of its rows' squared norms. Reassignments reach them
	// through per-chunk move lists instead of float deltas.
	exSums []mat.Exact
	exSq   []mat.Exact
	err    error // the first row the exact moments could not hold

	labels []int32
	upper  []float64 // u(i): upper bound on d(x_i, pos[labels[i]])
	lower  []float64 // l(i): lower bound on d(x_i, second-closest centroid)

	half  []float64 // s(c): half the distance from c to its nearest other centroid
	drift []float64 // per-centroid movement of the last update

	parts []kmeansChunk
}

// kmeansChunk is one chunk's contribution to a pass: vector-sum and
// count deltas from reassignments (or, in a warm run, the reassignments
// themselves), the chunk's farthest-point candidate for empty-cluster
// repair, and the final pass's per-chunk sizes, inertia, and count of
// rows that arrived labeled.
type kmeansChunk struct {
	deltaSums []float64 // k×dim
	deltaCnt  []int     // k
	moves     []kmeansMove
	farIdx    int
	farD      float64
	sizes     []int // k
	inertia   float64
	labeled   int
}

// kmeansMove is one reassignment of a warm run: row left cluster from
// (-1: it had none) for the cluster its label now names.
type kmeansMove struct {
	row, from int32
}

// newChunks returns n zeroed chunk accumulators for k×dim clusters.
func newChunks(n, k, dim int) []kmeansChunk {
	parts := make([]kmeansChunk, n)
	for i := range parts {
		parts[i] = kmeansChunk{deltaSums: make([]float64, k*dim), deltaCnt: make([]int, k), sizes: make([]int, k)}
	}
	return parts
}

func kmeansOnce(m *mat.Dense, k, maxIter int, tol float64, r *rand.Rand, workers int) *KMeansResult {
	n, dim := m.Rows(), m.Cols()
	run := &kmeansRun{
		data: m.Data(), n: n, dim: dim, k: k, workers: workers,
		pos:    kmeansPlusPlusInit(m, k, r),
		oldPos: make([]float64, k*dim),
		sums:   make([]float64, k*dim),
		counts: make([]int, k),
		labels: make([]int32, n),
		upper:  make([]float64, n),
		lower:  make([]float64, n),
		half:   make([]float64, k),
		drift:  make([]float64, k),
		parts:  newChunks(numChunks(n), k, dim),
	}

	run.initialAssign()
	iter := 0
	for ; iter < maxIter; iter++ {
		run.refreshHalf()
		run.assignPruned()
		if moved := run.updateCentroids(); moved <= tol {
			break
		}
	}
	labels, sizes, inertia := run.finalAssign()
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = run.pos[c*dim : c*dim+dim : c*dim+dim]
	}
	return &KMeansResult{
		K:          k,
		Centroids:  cents,
		Labels:     labels,
		Inertia:    inertia,
		Iterations: iter + 1,
		Sizes:      sizes,
	}
}

// initialAssign runs one exact pass: every point finds its two closest
// centroids, seeding labels, both bounds, and the per-cluster sums.
func (run *kmeansRun) initialAssign() {
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		run.resetChunk(p)
		for i := lo; i < hi; i++ {
			row := run.row(i)
			bi, bd, sd := run.closestTwo(row)
			run.labels[i] = int32(bi)
			run.upper[i] = math.Sqrt(bd)
			run.lower[i] = math.Sqrt(sd)
			p.deltaCnt[bi]++
			addTo(p.deltaSums[bi*run.dim:(bi+1)*run.dim], row)
		}
	})
	run.foldDeltas()
}

// assignPruned is the Hamerly-pruned assignment pass. A point whose
// upper bound stays below max(s(label), lower) provably keeps its
// assignment and skips the centroid scan entirely; everything else
// tightens its upper bound and, if still unresolved, rescans exactly.
// Reassignments are folded as per-chunk sum/count deltas in chunk order.
func (run *kmeansRun) assignPruned() {
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		run.resetChunk(p)
		maxDrift := 0.0
		for _, d := range run.drift {
			if d > maxDrift {
				maxDrift = d
			}
		}
		// The farthest candidate lives in locals for the sweep: a field
		// behind p would make every row wait on the previous row's store.
		farD, farIdx := p.farD, p.farIdx
		for i := lo; i < hi; i++ {
			a := int(run.labels[i])
			// Carry the bounds across the last centroid move.
			u := run.upper[i] + run.drift[a]
			l := run.lower[i] - maxDrift
			m := run.half[a]
			if l > m {
				m = l
			}
			if u <= m {
				run.upper[i], run.lower[i] = u, l
				if u > farD {
					farD, farIdx = u, i
				}
				continue
			}
			row := run.row(i)
			// Tighten: the exact distance may already satisfy the bound.
			u = math.Sqrt(sqDistTo(row, run.pos[a*run.dim:(a+1)*run.dim]))
			if u <= m {
				run.upper[i], run.lower[i] = u, l
				if u > farD {
					farD, farIdx = u, i
				}
				continue
			}
			bi, bd, sd := run.closestTwo(row)
			run.upper[i] = math.Sqrt(bd)
			run.lower[i] = math.Sqrt(sd)
			if run.upper[i] > farD {
				farD, farIdx = run.upper[i], i
			}
			if bi != a {
				run.labels[i] = int32(bi)
				run.move(p, i, a, row)
			}
		}
		p.farD, p.farIdx = farD, farIdx
	})
	run.foldDeltas()
}

// updateCentroids recomputes positions from the running sums, repairs
// empty clusters at the farthest-by-bound point, and records per-
// centroid drift for the next pass's bound updates. It returns the
// total squared movement (the Lloyd convergence measure).
func (run *kmeansRun) updateCentroids() float64 {
	dim := run.dim
	copy(run.oldPos, run.pos)
	// Farthest candidate folded in chunk order: lowest index wins ties.
	farIdx, farD := 0, -1.0
	for c := range run.parts {
		if run.parts[c].farD > farD {
			farD, farIdx = run.parts[c].farD, run.parts[c].farIdx
		}
	}
	moved := 0.0
	for c := 0; c < run.k; c++ {
		nc := run.pos[c*dim : (c+1)*dim]
		if run.counts[c] == 0 {
			// Empty cluster: re-seed at the point farthest from its
			// centroid (by the maintained bound), the standard repair.
			copy(nc, run.row(farIdx))
			run.drift[c] = math.Sqrt(sqDistTo(run.oldPos[c*dim:(c+1)*dim], nc))
			moved += 1 // force another iteration
			continue
		}
		inv := 1 / float64(run.counts[c])
		sums := run.sums[c*dim : (c+1)*dim]
		for j := range nc {
			nc[j] = sums[j] * inv
		}
		d2 := sqDistTo(run.oldPos[c*dim:(c+1)*dim], nc)
		run.drift[c] = math.Sqrt(d2)
		moved += d2
	}
	return moved
}

// finalAssign runs one exact pass against the final centroids and
// returns fresh labels, sizes, and the exact inertia, folded in chunk
// order.
func (run *kmeansRun) finalAssign() ([]int, []int, float64) {
	labels := make([]int, run.n)
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		run.resetChunk(p)
		lo, hi := run.chunkBounds(c)
		inertia := 0.0
		for i := lo; i < hi; i++ {
			bi, bd, _ := run.closestTwo(run.row(i))
			labels[i] = bi
			p.sizes[bi]++
			inertia += bd
		}
		p.inertia = inertia
	})
	sizes, inertia := run.foldFinal()
	return labels, sizes, inertia
}

// foldFinal sums the final pass's per-chunk sizes and inertia in chunk
// order.
func (run *kmeansRun) foldFinal() ([]int, float64) {
	sizes := make([]int, run.k)
	inertia := 0.0
	for c := range run.parts {
		inertia += run.parts[c].inertia
		for i, s := range run.parts[c].sizes {
			sizes[i] += s
		}
	}
	return sizes, inertia
}

// refreshHalf recomputes s(c), half the distance from each centroid to
// its nearest other centroid — the cheap O(k²) part of the Hamerly
// bound.
func (run *kmeansRun) refreshHalf() {
	dim := run.dim
	for c := 0; c < run.k; c++ {
		best := math.Inf(1)
		pc := run.pos[c*dim : (c+1)*dim]
		for o := 0; o < run.k; o++ {
			if o == c {
				continue
			}
			if d := sqDistTo(pc, run.pos[o*dim:(o+1)*dim]); d < best {
				best = d
			}
		}
		run.half[c] = 0.5 * math.Sqrt(best)
	}
}

// numChunks is the number of assignChunkRows chunks covering n rows.
func numChunks(n int) int { return (n + assignChunkRows - 1) / assignChunkRows }

func (run *kmeansRun) chunkBounds(c int) (int, int) {
	lo := c * assignChunkRows
	hi := lo + assignChunkRows
	if hi > run.n {
		hi = run.n
	}
	return lo, hi
}

func (run *kmeansRun) row(i int) []float64 {
	return run.data[i*run.dim : (i+1)*run.dim]
}

func (run *kmeansRun) resetChunk(p *kmeansChunk) {
	p.moves = p.moves[:0]
	for i := range p.deltaSums {
		p.deltaSums[i] = 0
	}
	for i := range p.deltaCnt {
		p.deltaCnt[i] = 0
		p.sizes[i] = 0
	}
	p.farIdx, p.farD = 0, -1
	p.inertia, p.labeled = 0, 0
}

// move records in chunk p that row i, now labeled run.labels[i], left
// cluster from (-1, it had none, only in warm runs). A warm run queues
// the move for its exact moments; a cold run folds it into the chunk's
// float deltas.
func (run *kmeansRun) move(p *kmeansChunk, i, from int, row []float64) {
	if run.exSums != nil {
		p.moves = append(p.moves, kmeansMove{row: int32(i), from: int32(from)})
		return
	}
	dim, to := run.dim, int(run.labels[i])
	p.deltaCnt[from]--
	p.deltaCnt[to]++
	subFrom(p.deltaSums[from*dim:(from+1)*dim], row)
	addTo(p.deltaSums[to*dim:(to+1)*dim], row)
}

// foldDeltas applies every chunk's sum/count deltas in chunk index
// order — the only place assignment results meet shared state. A warm
// run applies the chunks' moves to its exact moments instead.
func (run *kmeansRun) foldDeltas() {
	if run.exSums != nil {
		run.applyMoves()
		return
	}
	for c := range run.parts {
		p := &run.parts[c]
		for i, v := range p.deltaSums {
			run.sums[i] += v
		}
		for i, v := range p.deltaCnt {
			run.counts[i] += v
		}
	}
}

// closestTwo returns the nearest centroid index and the squared
// distances to the nearest and second-nearest centroids.
func (run *kmeansRun) closestTwo(row []float64) (int, float64, float64) {
	if run.dim == 6 {
		return closestTwo6(row, run.pos, run.k)
	}
	return closestTwoGeneric(row, run.pos, run.k, run.dim)
}

// closestTwo6 is the dim=6 scan kernel — the paper's matrices are six
// organs wide, so the Figure 7 hot loop runs fully unrolled with the
// same left-to-right summation order as the generic kernel.
func closestTwo6(row []float64, centroids []float64, k int) (int, float64, float64) {
	x := [6]float64(row[:6])
	bi, bd, sd := 0, math.Inf(1), math.Inf(1)
	for c := 0; c < k; c++ {
		cl := [6]float64(centroids[c*6 : c*6+6])
		d0 := x[0] - cl[0]
		d1 := x[1] - cl[1]
		d2 := x[2] - cl[2]
		d3 := x[3] - cl[3]
		d4 := x[4] - cl[4]
		d5 := x[5] - cl[5]
		s := d0*d0 + d1*d1 + d2*d2 + d3*d3 + d4*d4 + d5*d5
		if s < bd {
			sd, bd, bi = bd, s, c
		} else if s < sd {
			sd = s
		}
	}
	return bi, bd, sd
}

// closestTwoGeneric is the any-dimension scan kernel.
func closestTwoGeneric(row, centroids []float64, k, dim int) (int, float64, float64) {
	bi, bd, sd := 0, math.Inf(1), math.Inf(1)
	for c := 0; c < k; c++ {
		cent := centroids[c*dim : (c+1)*dim]
		s := 0.0
		for j, v := range row {
			d := v - cent[j]
			s += d * d
		}
		if s < bd {
			sd, bd, bi = bd, s, c
		} else if s < sd {
			sd = s
		}
	}
	return bi, bd, sd
}

// sqDistTo is the squared Euclidean distance between two equal-length
// flat vectors, without the public Distance guard (callers here slice
// from the same matrices).
func sqDistTo(a, b []float64) float64 {
	s := 0.0
	for j, v := range a {
		d := v - b[j]
		s += d * d
	}
	return s
}

func addTo(dst, src []float64) {
	for j, v := range src {
		dst[j] += v
	}
}

func subFrom(dst, src []float64) {
	for j, v := range src {
		dst[j] -= v
	}
}

// kmeansPlusPlusInit seeds centroids with the k-means++ scheme: first
// centroid uniform, each next one sampled proportionally to the squared
// distance from the nearest already-chosen centroid. It consumes the
// same RNG sequence as the historical [][]float64 implementation, so
// seeds keep selecting the same starting points.
func kmeansPlusPlusInit(m *mat.Dense, k int, r *rand.Rand) []float64 {
	n, dim := m.Rows(), m.Cols()
	data := m.Data()
	centroids := make([]float64, dim, k*dim)
	first := r.IntN(n)
	copy(centroids, data[first*dim:(first+1)*dim])

	d2 := make([]float64, n)
	last := centroids[:dim]
	for i := range d2 {
		d2[i] = sqDistTo(data[i*dim:i*dim+dim], last)
	}
	for chosen := 1; chosen < k; chosen++ {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total == 0 {
			// All remaining points coincide with centroids; pick uniform.
			idx = r.IntN(n)
		} else {
			x := r.Float64() * total
			for i, d := range d2 {
				x -= d
				if x <= 0 {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, data[idx*dim:(idx+1)*dim]...)
		last = centroids[chosen*dim : (chosen+1)*dim]
		for i := range d2 {
			if d := sqDistTo(data[i*dim:i*dim+dim], last); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centroids
}
