package cluster

import (
	"fmt"
	"math"
	"slices"

	"donorsense/internal/mat"
)

// Warm-started clustering: the state a converged run leaves behind is
// enough to make the next run over slightly-changed data nearly free.
//
// For K-Means the state is the final centroid positions plus each
// point's label and Hamerly bounds, and — carried in memory between
// resumes, never persisted — each cluster's exact moments: the vector
// sum S_c and the sum Q_c of squared row norms of its rows (mat.Exact
// accumulators), and its count n_c. A caller that knows which rows
// changed takes each one out of its cluster with Unassign before the
// row's data changes (its vector leaves the moments and its label
// becomes -1), and gives new rows label -1. The survivors keep their
// entries: their bounds remain valid, because the centroids they were
// proved against are exactly the positions the warm run starts from. A
// resume exactly re-assigns only the -1 rows, adds them to the moments,
// and re-enters the standard pruned Lloyd loop, whose centroids are
// fl(S_c)·fl(1/n_c). On an unchanged dataset it converges immediately,
// and after a small delta it typically needs one or two iterations in
// which every clean point is pruned by its carried bounds. The final
// pass only checks labels against the bounds, reading a row's data only
// when its bounds fail, and serves the inertia from the moments,
// Σ_c max(0, Q_c − 2c·S_c + n_c‖c‖²), in O(k·dim).
//
// Exact moments do not drift: after any history of resumes they equal a
// re-sum of the labeled rows, and they do not depend on the order rows
// were added or on the worker count, so a resume is bit-identical for
// any number of workers. They are re-summed in full only when missing
// (a state restored from a checkpoint) or when they no longer account
// for every labeled row (a caller marked rows -1 without Unassign).
// Data the moments cannot hold exactly (see mat.Exact) makes the warm
// path unavailable: the run falls back to the cold path and captures no
// state. Restarts are skipped — a warm run continues the incumbent
// solution rather than re-searching initializations — so callers fall
// back to the cold path (and its restarts) whenever the state is
// missing or no longer fits the data. Warm results are verified
// converged-equal, not bit-identical, against cold runs: the same
// partition at an inertia within 1e-9 relative, reached through
// different float sequences.
//
// For the (≤ 51-state) agglomerative clustering the expensive part is
// the O(n²) transcendental distance evaluations, so PairwiseCache keys
// the matrix by row identity and recomputes only pairs touching dirty
// rows — the cgmlst pi/lambda idea adapted to our NN-chain: cache what
// survives, recompute what a changed row invalidates, and skip the
// chain rerun entirely when no distance changed.

// KMeansWarmState is the resumable state of a converged K-Means run.
// Labels[i] == -1 marks a row whose data changed since the state was
// captured (bounds invalid, exact re-assignment required). A resume
// updates the state in place; once it has been checked (Validate, or a
// resume), callers may change it only through Unassign and by moving
// rows in all three per-row slices together, giving inserted rows label
// -1.
type KMeansWarmState struct {
	K         int
	Dim       int
	Centroids []float64 // k×dim final positions
	Labels    []int32   // per row; -1 = dirty/new
	Upper     []float64 // Hamerly upper bound per row
	Lower     []float64 // Hamerly lower bound per row

	// Carried between resumes, not persisted.
	sums    []mat.Exact   // k×dim exact vector sums S_c of the labeled rows
	sqNorms []mat.Exact   // k exact sums Q_c of their squared norms
	counts  []int         // labeled rows per cluster
	checked bool          // the state passed Validate or was built here
	parts   []kmeansChunk // per-chunk scratch, reused
	out     []int         // result labels, reused
}

// Validate checks the state is internally consistent: k ≥ 1, dim ≥ 1,
// k×dim finite centroids, per-row slices of one length, labels in
// [-1, k), and finite non-negative bounds (a +Inf lower bound only when
// k = 1).
func (ws *KMeansWarmState) Validate() error {
	if ws.K < 1 || ws.Dim < 1 {
		return fmt.Errorf("cluster: warm state k=%d dim=%d", ws.K, ws.Dim)
	}
	if len(ws.Centroids) != ws.K*ws.Dim {
		return fmt.Errorf("cluster: warm state has %d centroid values, want %d×%d", len(ws.Centroids), ws.K, ws.Dim)
	}
	if len(ws.Upper) != len(ws.Labels) || len(ws.Lower) != len(ws.Labels) {
		return fmt.Errorf("cluster: warm state has %d labels, %d upper and %d lower bounds", len(ws.Labels), len(ws.Upper), len(ws.Lower))
	}
	for i, c := range ws.Centroids {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("cluster: warm centroid value %d is %v", i, c)
		}
	}
	for i, l := range ws.Labels {
		if l < -1 || int(l) >= ws.K {
			return fmt.Errorf("cluster: warm label %d of row %d out of k=%d", l, i, ws.K)
		}
		// With one centroid there is no second-closest, so the lower
		// bound is +Inf.
		if u, lo := ws.Upper[i], ws.Lower[i]; !(u >= 0 && lo >= 0) || math.IsInf(u, 0) || (math.IsInf(lo, 0) && ws.K > 1) {
			return fmt.Errorf("cluster: warm bounds (%v, %v) of row %d", u, lo, i)
		}
	}
	ws.checked = true
	return nil
}

// compatible reports whether the state can seed a warm run over n×dim
// data at the configured k.
func (ws *KMeansWarmState) compatible(n, dim, k int) bool {
	return ws != nil && ws.K == k && ws.Dim == dim &&
		len(ws.Centroids) == k*dim &&
		len(ws.Labels) == n && len(ws.Upper) == n && len(ws.Lower) == n
}

// Unassign takes row i out of its cluster before the caller changes or
// drops the row's data: row must still be the vector the state last
// assigned. The vector leaves the carried moments and the label becomes
// -1, so the next resume re-assigns the row exactly. Rows already at -1
// are left alone.
func (ws *KMeansWarmState) Unassign(i int, row []float64) {
	l := int(ws.Labels[i])
	if l < 0 {
		return
	}
	ws.Labels[i] = -1
	if len(ws.counts) != ws.K || len(ws.sums) != ws.K*ws.Dim || len(ws.sqNorms) != ws.K {
		return
	}
	if foldMoments(ws.sums[l*ws.Dim:(l+1)*ws.Dim], &ws.sqNorms[l], row, -1) != nil {
		// Not the row that was added: the next resume re-sums.
		ws.sums, ws.sqNorms, ws.counts = nil, nil, nil
		return
	}
	ws.counts[l]--
}

// KMeansDenseWarm is KMeansDense with warm-start: when warm carries a
// compatible and valid prior state the run resumes from it in place
// (resumed true), otherwise it cold-starts through KMeansDense —
// bit-identical to a direct call, restarts included. A resume that
// meets a row its exact moments cannot hold also runs cold. The
// returned state captures the finished run for the next resume, with
// bounds valid against its final centroids; it is nil when the data
// holds such a row. A resumed result's Labels and Centroids share the
// state's memory: they hold until the state's next resume.
func KMeansDenseWarm(m *mat.Dense, cfg KMeansConfig, warm *KMeansWarmState) (*KMeansResult, *KMeansWarmState, bool, error) {
	n, dim := m.Rows(), m.Cols()
	if cfg.K < 1 || cfg.K > n {
		return nil, nil, false, fmt.Errorf("cluster: kmeans k=%d with n=%d", cfg.K, n)
	}
	if warm.compatible(n, dim, cfg.K) && (warm.checked || warm.Validate() == nil) {
		if res := kmeansResume(m, cfg, warm); res != nil {
			return res, warm, true, nil
		}
	}
	res, err := KMeansDense(m, cfg)
	if err != nil {
		return nil, nil, false, err
	}
	return res, captureWarm(m, res, resolveWorkers(cfg.Workers)), false, nil
}

// kmeansResume continues a run from warm state: exactly assign the -1
// rows, fold them into the carried moments (or re-sum everything when
// the moments cannot be trusted), then iterate the standard pruned loop
// to convergence and capture the result in place. Iterations counts the
// centroid updates. It returns nil when a row cannot be held by the
// exact moments.
func kmeansResume(m *mat.Dense, cfg KMeansConfig, ws *KMeansWarmState) *KMeansResult {
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	run := ws.run(m, resolveWorkers(cfg.Workers))
	run.assignDirty()
	// A pruned pass before the first update could only confirm labels:
	// every clean row holds its exact nearest centroid from the previous
	// capture, every dirty row's was just computed, and no centroid has
	// moved since. So the resume starts with the update. Only an emptied
	// cluster needs a pass first, for its farthest-point repair.
	if run.err == nil && slices.Contains(run.counts, 0) {
		run.refreshHalf()
		run.assignPruned()
	}
	iter := 1
	for moved := run.updateCentroids(); run.err == nil && moved > tol && iter < maxIter; iter++ {
		run.refreshHalf()
		run.assignPruned()
		moved = run.updateCentroids()
	}
	var res *KMeansResult
	if run.err == nil {
		res = run.finishCapture(iter, ws.out[:run.n])
	}
	if run.err != nil {
		// The moments no longer match the labels; a later resume re-sums.
		ws.sums, ws.sqNorms, ws.counts = nil, nil, nil
		return nil
	}
	return res
}

// run binds a kmeansRun to the state's memory: positions, labels,
// bounds, exact moments, and the reusable scratch, growing what the row
// count outgrew.
func (ws *KMeansWarmState) run(m *mat.Dense, workers int) *kmeansRun {
	n, k, dim := m.Rows(), ws.K, ws.Dim
	if len(ws.sums) != k*dim || len(ws.sqNorms) != k || len(ws.counts) != k {
		ws.sums, ws.sqNorms, ws.counts = make([]mat.Exact, k*dim), make([]mat.Exact, k), make([]int, k)
	}
	if c := numChunks(n); len(ws.parts) < c {
		ws.parts = append(ws.parts, newChunks(c-len(ws.parts), k, dim)...)
	}
	if cap(ws.out) < n {
		ws.out = make([]int, n, n+n/64)
	}
	run := &kmeansRun{
		data: m.Data(), n: n, dim: dim, k: k, workers: workers,
		pos:    ws.Centroids,
		oldPos: make([]float64, k*dim),
		sums:   make([]float64, k*dim),
		counts: ws.counts,
		exSums: ws.sums,
		exSq:   ws.sqNorms,
		labels: ws.Labels,
		upper:  ws.Upper,
		lower:  ws.Lower,
		half:   make([]float64, k),
		drift:  make([]float64, k),
		parts:  ws.parts[:numChunks(n)],
	}
	run.roundSums()
	return run
}

// assignDirty gives every -1 row its exact two closest centroids and
// adds it to the moments. If the rows that arrived labeled are not
// exactly the ones the carried counts account for, the moments are
// rebuilt from all labels instead.
func (run *kmeansRun) assignDirty() {
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		run.resetChunk(p)
		labeled := 0
		for i := lo; i < hi; i++ {
			if run.labels[i] >= 0 {
				labeled++
				continue
			}
			row := run.row(i)
			bi, bd, sd := run.closestTwo(row)
			run.labels[i] = int32(bi)
			run.upper[i] = math.Sqrt(bd)
			run.lower[i] = math.Sqrt(sd)
			run.move(p, i, -1, row)
		}
		p.labeled = labeled
	})
	labeled, counted := 0, 0
	for c := range run.parts {
		labeled += run.parts[c].labeled
	}
	for _, n := range run.counts {
		counted += n
	}
	if labeled == counted {
		run.foldDeltas()
		return
	}
	run.resum()
}

// resum rebuilds the exact moments and counts from every row's label.
// Rows are summed in one stripe per worker and the stripes merged;
// exact sums make the result independent of the split.
func (run *kmeansRun) resum() {
	k, dim := run.k, run.dim
	stripes := min(run.workers, run.n)
	type stripe struct {
		sums, sq []mat.Exact
		counts   []int
		err      error
	}
	st := make([]stripe, stripes)
	parallelChunks(stripes, run.workers, func(w int) {
		p := &st[w]
		p.sums, p.sq, p.counts = make([]mat.Exact, k*dim), make([]mat.Exact, k), make([]int, k)
		for i := w * run.n / stripes; i < (w+1)*run.n/stripes; i++ {
			l := int(run.labels[i])
			if p.err = foldMoments(p.sums[l*dim:(l+1)*dim], &p.sq[l], run.row(i), 1); p.err != nil {
				return
			}
			p.counts[l]++
		}
	})
	for c := range run.parts {
		run.parts[c].moves = run.parts[c].moves[:0]
	}
	clear(run.exSums)
	clear(run.exSq)
	clear(run.counts)
	for w := range st {
		if st[w].err != nil {
			run.err = st[w].err
			return
		}
		for i := range st[w].sums {
			run.exSums[i].Merge(&st[w].sums[i])
		}
		for c := range st[w].sq {
			run.exSq[c].Merge(&st[w].sq[c])
			run.counts[c] += st[w].counts[c]
		}
	}
	run.roundSums()
}

// applyMoves applies every chunk's queued reassignments to the exact
// moments and counts, then re-rounds the float sums the centroid update
// reads. Exact arithmetic makes the order irrelevant.
func (run *kmeansRun) applyMoves() {
	for c := range run.parts {
		p := &run.parts[c]
		for _, mv := range p.moves {
			i := int(mv.row)
			row, to := run.row(i), int(run.labels[i])
			if from := int(mv.from); from >= 0 {
				run.foldExact(from, row, -1)
				run.counts[from]--
			}
			run.foldExact(to, row, 1)
			run.counts[to]++
		}
		p.moves = p.moves[:0]
	}
	run.roundSums()
}

// foldExact adds (sign 1) or subtracts (sign -1) a row in cluster c's
// exact moments, recording the first failure in run.err.
func (run *kmeansRun) foldExact(c int, row []float64, sign float64) {
	if run.err == nil {
		run.err = foldMoments(run.exSums[c*run.dim:(c+1)*run.dim], &run.exSq[c], row, sign)
	}
}

// foldMoments adds (sign 1) or subtracts (sign -1) a row and its squared
// norm in one cluster's exact moments. On error they are left partly
// updated.
func foldMoments(sums []mat.Exact, sq *mat.Exact, row []float64, sign float64) error {
	norm := 0.0
	for j, v := range row {
		norm += v * v
		if v == 0 { // most of Û; spares the call
			continue
		}
		if err := sums[j].Add(sign * v); err != nil {
			return err
		}
	}
	return sq.Add(sign * norm)
}

// roundSums rounds the exact vector sums into the float sums the
// centroid update reads.
func (run *kmeansRun) roundSums() {
	for i := range run.exSums {
		run.sums[i] = run.exSums[i].Float64()
	}
}

// finishCapture finalizes the run against the loop's last centroid
// move, writing the result labels into out and the next warm state into
// the run's own slices in one sweep. It is a label check: a point whose
// carried bounds, moved by the final (sub-tolerance) drift, prove its
// label reads nothing but its label and bounds, and keeps the moved
// bounds, which remain valid for the next resume. Only points the
// bounds cannot clear read their row — to tighten against their own
// centroid and, failing that, rescan exactly — and the few that change
// cluster move between the exact moments. The inertia comes from the
// moments in O(k·dim): Σ_c max(0, Q_c − 2c·S_c + n_c‖c‖²).
func (run *kmeansRun) finishCapture(iterations int, out []int) *KMeansResult {
	k, dim := run.k, run.dim
	run.refreshHalf() // half-distances against the final positions
	maxDrift := 0.0
	for _, d := range run.drift {
		if d > maxDrift {
			maxDrift = d
		}
	}
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		run.resetChunk(p)
		lo, hi := run.chunkBounds(c)
		for i := lo; i < hi; i++ {
			a := int(run.labels[i])
			u := run.upper[i] + run.drift[a]
			l := run.lower[i] - maxDrift
			m := max(run.half[a], l)
			if u > m {
				row := run.row(i)
				u = math.Sqrt(sqDistTo(row, run.pos[a*dim:(a+1)*dim]))
				if u > m {
					bi, bd, sd := run.closestTwo(row)
					u, l = math.Sqrt(bd), math.Sqrt(sd)
					if bi != a {
						run.labels[i] = int32(bi)
						run.move(p, i, a, row)
						a = bi
					}
				}
			}
			out[i] = a
			run.upper[i] = u
			// A negative carried lower bound never prunes (the half
			// distances are ≥ 0), so storing it as 0 changes no decision
			// and keeps every persisted bound non-negative.
			run.lower[i] = max(l, 0)
		}
	})
	run.foldDeltas()
	inertia := 0.0
	for c := 0; c < k; c++ {
		pc := run.pos[c*dim : (c+1)*dim]
		dot, norm := 0.0, 0.0
		for j, v := range pc {
			dot += v * run.sums[c*dim+j]
			norm += v * v
		}
		inertia += max(0, run.exSq[c].Float64()-2*dot+float64(run.counts[c])*norm)
	}
	cents := make([][]float64, k)
	for c := range cents {
		cents[c] = run.pos[c*dim : c*dim+dim : c*dim+dim]
	}
	return &KMeansResult{
		K:          k,
		Centroids:  cents,
		Labels:     out,
		Inertia:    inertia,
		Iterations: iterations,
		Sizes:      append([]int(nil), run.counts...),
	}
}

// captureWarm derives warm state from a finished cold run with one exact
// pass against its centroids — the same computation the run's own final
// pass performed, so the captured labels agree with res.Labels — and
// sums the clusters' exact moments for the resumes that follow. It
// returns nil when the data holds a value the moments cannot.
func captureWarm(m *mat.Dense, res *KMeansResult, workers int) *KMeansWarmState {
	n, dim := m.Rows(), m.Cols()
	k := res.K
	pos := make([]float64, 0, k*dim)
	for _, c := range res.Centroids {
		pos = append(pos, c...)
	}
	ws := &KMeansWarmState{
		K:         k,
		Dim:       dim,
		Centroids: pos,
		Labels:    make([]int32, n),
		Upper:     make([]float64, n),
		Lower:     make([]float64, n),
		checked:   true,
	}
	run := ws.run(m, workers)
	parallelChunks(len(run.parts), workers, func(c int) {
		lo, hi := run.chunkBounds(c)
		for i := lo; i < hi; i++ {
			bi, bd, sd := run.closestTwo(run.row(i))
			ws.Labels[i] = int32(bi)
			ws.Upper[i] = math.Sqrt(bd)
			ws.Lower[i] = math.Sqrt(sd)
		}
	})
	run.resum()
	if run.err != nil {
		return nil
	}
	return ws
}

// PairwiseCache caches a keyed pairwise-distance matrix across refreshes
// and the dendrogram built from it. Keys identify rows (state codes for
// the Figure 6 clustering); a refresh recomputes only the pairs with a
// dirty or previously-unseen endpoint and copies every clean pair from
// the cache. Distances are pure functions of their rows, so a copied
// value is bitwise what recomputation would produce — the full matrix is
// always bit-identical to PairwiseMatrixWorkers over the same rows.
type PairwiseCache struct {
	keys    []string
	index   map[string]int
	d       [][]float64
	dend    *Dendrogram
	linkage Linkage
	fresh   bool // dend matches d
}

// Refresh returns the pairwise matrix for rows/keys, reusing cached
// entries for pairs of clean keys. dirty reports whether a key's row
// changed since the previous refresh (called only for keys the cache
// knows). The returned matrix is owned by the cache; callers must not
// mutate it. changed reports whether any entry was recomputed — when
// false the matrix is the identical cached object.
func (pc *PairwiseCache) Refresh(rows [][]float64, keys []string, dirty func(key string) bool, dist Distance, workers int) (d [][]float64, changed bool, err error) {
	n := len(rows)
	if n == 0 {
		return nil, false, fmt.Errorf("cluster: pairwise of zero rows")
	}
	if len(keys) != n {
		return nil, false, fmt.Errorf("cluster: %d keys for %d rows", len(keys), n)
	}

	// Clean key = known to the cache and not dirty. If every key is
	// clean and the key order is unchanged, the cached matrix is current.
	clean := make([]bool, n)
	allSame := len(pc.keys) == n
	for i, key := range keys {
		old, known := pc.index[key]
		clean[i] = known && !dirty(key)
		if allSame && (!known || old != i || !clean[i]) {
			allSame = false
		}
	}
	if allSame {
		return pc.d, false, nil
	}

	out := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var v float64
			if clean[i] && clean[j] {
				v = pc.d[pc.index[keys[i]]][pc.index[keys[j]]]
			} else {
				v = dist(rows[i], rows[j])
			}
			out[i][j], out[j][i] = v, v
		}
	}

	pc.keys = append(pc.keys[:0], keys...)
	pc.index = make(map[string]int, n)
	for i, key := range keys {
		pc.index[key] = i
	}
	pc.d = out
	pc.fresh = false
	return out, true, nil
}

// Dendrogram clusters the cached matrix, rerunning the NN-chain only
// when the matrix (or linkage) changed since the last call — otherwise
// the previous dendrogram is returned as-is.
func (pc *PairwiseCache) Dendrogram(linkage Linkage) (*Dendrogram, error) {
	if pc.d == nil {
		return nil, fmt.Errorf("cluster: dendrogram before any refresh")
	}
	if pc.fresh && pc.dend != nil && pc.linkage == linkage {
		return pc.dend, nil
	}
	dg, err := Agglomerative(pc.d, linkage)
	if err != nil {
		return nil, err
	}
	pc.dend, pc.linkage, pc.fresh = dg, linkage, true
	return dg, nil
}
