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
// becomes -1). New rows arrive through Grow with label -1; rows never
// leave. The unchanged rows keep their entries: their bounds remain
// valid, because the centroids they were proved against are exactly the
// positions the warm run starts from. A resume exactly re-assigns only the -1 rows, adds
// them to the moments, and re-enters the standard pruned Lloyd loop,
// whose centroids are fl(S_c)·fl(1/n_c), until it converges. It serves
// the inertia from the moments, Σ_c max(0, Q_c − 2c·S_c + n_c‖c‖²), in
// O(k·dim).
//
// Bounds are carried lazily (Hamerly 2010, "Making k-means even
// faster"; Ding et al. 2015, "Yinyang K-Means"), so a resume costs what
// changed, not a pass over every row. Instead of adding each centroid
// move to every row's bounds, the state sums the moves: a per-cluster
// offset D_c and a global offset G that grows by the largest move of
// each update. A row stores its upper bound less D of its cluster and
// its lower bound plus G, so its effective bounds are Upper+D_label and
// Lower−G and stay valid without a write. Since no D_c grows faster than
// G, a row's slack (lower − upper) shrinks by at most 2G. The rows whose
// slack, when last stored, was below a threshold τ form the candidate
// list. While 2G < τ, no other row's bounds can fail, so the pruned
// passes and the final label check visit only the candidates and the -1
// rows, which the state lists as they arrive. Once 2G reaches τ (or the
// list has doubled since it was built) one sweep over every row checks
// it, restates its bounds without offsets, resets D and G, and rebuilds
// the list; τ is chosen there from the rows' slacks, so that about one
// row in 32 is a candidate. Stale list entries (rows whose bounds have
// changed since) cost a re-check, never a wrong label. Every label a resume serves is
// still the exact nearest centroid.
//
// Exact moments do not drift: after any history of resumes they equal a
// re-sum of the labeled rows, and they do not depend on the order rows
// were added or on the worker count, so a resume is bit-identical for
// any number of workers. They are re-summed in full only when missing
// (a state restored from a checkpoint) or when they no longer account
// for every labeled row. Data the moments cannot hold exactly (see
// mat.Exact) makes the warm path unavailable: the run falls back to the
// cold path and captures no state. Restarts are skipped — a warm run
// continues the incumbent solution rather than re-searching
// initializations — so callers fall back to the cold path (and its
// restarts) whenever the state is missing or no longer fits the data.
// Warm results are verified converged-equal, not bit-identical, against
// cold runs: the same partition at an inertia within 1e-9 relative,
// reached through different float sequences.
//
// For the (≤ 51-state) agglomerative clustering the expensive part is
// the O(n²) transcendental distance evaluations, so PairwiseCache keys
// the matrix by row identity and recomputes only pairs touching dirty
// rows — the cgmlst pi/lambda idea adapted to our NN-chain: cache what
// survives, recompute what a changed row invalidates, and skip the
// chain rerun entirely when no distance changed.

// KMeansWarmState is the resumable state of a converged K-Means run.
// Labels[i] == -1 marks a row whose data changed since the state was
// captured (bounds invalid, exact re-assignment required).
//
// The exported fields are the persisted shape. In a state that was
// decoded, assembled by a caller, or just captured from a cold run they
// hold plain bounds, and any of them may be written until the state's
// first resume, which sweeps every row. From then on a resume updates
// the state in place and tracks its rows: Upper and Lower hold bounds
// relative to the carried offsets (Reorder states them plainly), and
// callers change the rows only through Unassign and Grow.
type KMeansWarmState struct {
	K         int
	Dim       int
	Centroids []float64 // k×dim final positions
	Labels    []int32   // per row; -1 = dirty/new
	Upper     []float64 // Hamerly upper bound per row, less its cluster's offset
	Lower     []float64 // Hamerly lower bound per row, plus the global offset

	// Carried between resumes, not persisted.
	sums    []mat.Exact   // k×dim exact vector sums S_c of the labeled rows
	sqNorms []mat.Exact   // k exact sums Q_c of their squared norms
	counts  []int         // labeled rows per cluster
	checked bool          // the state passed Validate or was built here
	parts   []kmeansChunk // per-chunk scratch, reused

	// Lazy bounds, valid while tracked.
	offsets   []float64 // k cumulative drifts D_c since the last sweep
	maxOffset float64   // G: the summed largest drift of each update since then
	slack     float64   // τ: rows off the candidate list had at least this slack
	cands     []int32   // candidate rows; may hold stale and repeated entries
	candBase  int       // len(cands) right after the last sweep
	dirty     []int32   // rows given label -1 since the last resume; may be stale
	out       []int     // result labels, equal to Labels after a resume
	tracked   bool      // a resume swept the state and has tracked its rows since
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
	if ws.tracked {
		ws.dirty = append(ws.dirty, int32(i))
	}
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

// Grow appends rows up to n after the caller appended their data rows.
// They get label -1, for the next resume to assign.
func (ws *KMeansWarmState) Grow(n int) {
	old := len(ws.Labels)
	ws.Labels = mat.ResizeRows(ws.Labels, n, 1)
	ws.Upper = mat.ResizeRows(ws.Upper, n, 1)
	ws.Lower = mat.ResizeRows(ws.Lower, n, 1)
	if ws.tracked {
		ws.out = mat.ResizeRows(ws.out, n, 1)
	}
	for i := old; i < n; i++ {
		ws.Labels[i], ws.Upper[i], ws.Lower[i] = -1, 0, 0
		if ws.tracked {
			ws.dirty = append(ws.dirty, int32(i))
		}
	}
}

// Reorder returns a standalone copy of the state in the persisted shape:
// its row i is row rows[i] of ws, with the effective bounds stated
// plainly (no offsets), so it validates and resumes like a decoded
// state.
func (ws *KMeansWarmState) Reorder(rows []int32) *KMeansWarmState {
	c := &KMeansWarmState{
		K:         ws.K,
		Dim:       ws.Dim,
		Centroids: slices.Clone(ws.Centroids),
		Labels:    make([]int32, len(rows)),
		Upper:     make([]float64, len(rows)),
		Lower:     make([]float64, len(rows)),
	}
	for i, r := range rows {
		c.Labels[i] = ws.Labels[r]
		if c.Labels[i] >= 0 {
			c.Upper[i], c.Lower[i] = ws.bounds(int(r))
		}
	}
	return c
}

// bounds returns labeled row i's effective upper and lower bounds.
func (ws *KMeansWarmState) bounds(i int) (float64, float64) {
	off := 0.0
	if len(ws.offsets) == ws.K {
		off = ws.offsets[ws.Labels[i]]
	}
	return max(ws.Upper[i]+off, 0), max(ws.Lower[i]-ws.maxOffset, 0)
}

// KMeansWarm is KMeans with warm-start: when warm carries a compatible
// and valid prior state the run resumes from it in place (resumed
// true), otherwise it cold-starts through KMeans — bit-identical to a
// direct call, restarts included. A resume that
// meets a row its exact moments cannot hold also runs cold. The
// returned state captures the finished run for the next resume, with
// bounds valid against its final centroids; it is nil when the data
// holds such a row. A resumed result's Labels and Centroids share the
// state's memory: they hold until the state next changes.
func KMeansWarm(m *mat.Matrix, cfg KMeansConfig, warm *KMeansWarmState) (*KMeansResult, *KMeansWarmState, bool, error) {
	n, dim := m.Rows(), m.Cols()
	if cfg.K < 1 || cfg.K > n {
		return nil, nil, false, fmt.Errorf("cluster: kmeans k=%d with n=%d", cfg.K, n)
	}
	if warm.compatible(n, dim, cfg.K) && (warm.checked || warm.Validate() == nil) {
		if res := kmeansResume(m, cfg, warm); res != nil {
			return res, warm, true, nil
		}
	}
	res, err := KMeans(m, cfg)
	if err != nil {
		return nil, nil, false, err
	}
	return res, captureWarm(m, res, resolveWorkers(cfg.Workers)), false, nil
}

// warmRun is a kmeansRun bound to a warm state's memory, with the lazy
// passes of a resume.
type warmRun struct {
	*kmeansRun
	ws *KMeansWarmState
}

// kmeansResume continues a run from warm state: exactly assign the -1
// rows and fold them into the carried moments, then iterate the
// standard pruned loop to convergence, checking only the candidates
// while the offsets allow it and sweeping every row when they do not,
// and serve the result from the state. Iterations counts the centroid
// updates. It returns nil when a row cannot be held by the exact
// moments.
func kmeansResume(m *mat.Matrix, cfg KMeansConfig, ws *KMeansWarmState) *KMeansResult {
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	tol := cfg.Tolerance
	if tol <= 0 {
		tol = 1e-9
	}
	lazy := ws.tracked && len(ws.counts) == ws.K
	run := warmRun{ws.run(m, resolveWorkers(cfg.Workers)), ws}
	run.refreshHalf()
	if lazy {
		run.visit(ws.dirty)
		ws.dirty = ws.dirty[:0]
	} else {
		run.sweep()
	}
	// A pruned pass before the first update could only confirm labels:
	// every clean row holds its exact nearest centroid from the previous
	// resume, every dirty row's was just computed, and no centroid has
	// moved since. So the resume starts with the update. Only an emptied
	// cluster needs a pass first, for its farthest-point repair.
	if run.err == nil && slices.Contains(run.counts, 0) {
		run.sweep()
	}
	iter := 1
	for moved := run.update(); run.err == nil && moved > tol && iter < maxIter; iter++ {
		run.refreshHalf()
		run.check()
		moved = run.update()
	}
	if run.err == nil {
		// The final label check, against the last (sub-tolerance) move.
		run.refreshHalf()
		run.check()
	}
	if run.err != nil {
		// The moments no longer match the labels; a later resume re-sums.
		ws.sums, ws.sqNorms, ws.counts = nil, nil, nil
		ws.tracked = false
		return nil
	}
	return run.result(iter)
}

// run binds a kmeansRun to the state's memory: positions, labels,
// bounds, exact moments, and the reusable scratch, growing what the row
// count outgrew.
func (ws *KMeansWarmState) run(m *mat.Matrix, workers int) *kmeansRun {
	n, k, dim := m.Rows(), ws.K, ws.Dim
	if len(ws.sums) != k*dim || len(ws.sqNorms) != k || len(ws.counts) != k {
		ws.sums, ws.sqNorms, ws.counts = make([]mat.Exact, k*dim), make([]mat.Exact, k), make([]int, k)
	}
	if len(ws.offsets) != k {
		ws.offsets = make([]float64, k)
	}
	if c := numChunks(n); len(ws.parts) < c {
		ws.parts = append(ws.parts, newChunks(c-len(ws.parts), k, dim)...)
	}
	ws.out = mat.ResizeRows(ws.out, n, 1)
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

// update moves the centroids and carries each cluster's drift into the
// offsets instead of into every row's bounds.
func (run warmRun) update() float64 {
	moved := run.updateCentroids()
	largest := 0.0
	for c, d := range run.drift {
		run.ws.offsets[c] += d
		largest = max(largest, d)
	}
	run.ws.maxOffset += largest
	return moved
}

// check is one pruned assignment pass. While the offsets have not used
// up the slack the candidate list was built for, and the list has not
// doubled, only the candidates can fail their bounds, so only they are
// visited. Otherwise, or when the pass empties a cluster (whose repair
// needs the farthest row), every row is swept.
func (run warmRun) check() {
	ws := run.ws
	if 2*ws.maxOffset >= ws.slack || len(ws.cands) > 2*ws.candBase+assignChunkRows || slices.Contains(run.counts, 0) {
		run.sweep()
		return
	}
	run.visit(ws.cands)
	if slices.Contains(run.counts, 0) {
		run.sweep()
	}
}

// visit is the pruned pass over the listed rows alone. A -1 row gets
// its exact two closest centroids, joins the moments, and is listed as
// a candidate when its slack is below τ. Any other row whose effective
// bounds still prove its label is not written; one that fails tightens
// its upper bound and, failing that, rescans exactly. New bounds are
// stored against the offsets. Entries past the last row are stale.
func (run warmRun) visit(rows []int32) {
	ws := run.ws
	off, g := ws.offsets, ws.maxOffset
	p := &run.parts[0]
	run.resetChunk(p)
	for _, r := range rows {
		i := int(r)
		if i >= run.n {
			continue
		}
		a := int(run.labels[i])
		var u, l float64
		if a >= 0 {
			u, l = run.upper[i]+off[a], run.lower[i]-g
			m := max(run.half[a], l)
			if u <= m {
				continue
			}
			if u = math.Sqrt(sqDistTo(run.row(i), run.pos[a*run.dim:(a+1)*run.dim])); u <= m {
				run.upper[i] = u - off[a]
				continue
			}
		}
		row := run.row(i)
		bi, bd, sd := run.closestTwo(row)
		u, l = math.Sqrt(bd), math.Sqrt(sd)
		if bi != a {
			run.labels[i] = int32(bi)
			ws.out[i] = bi
			run.move(p, i, a, row)
		}
		run.upper[i], run.lower[i] = u-off[bi], l+g
		if a < 0 && max(run.half[bi], l)-u < ws.slack {
			ws.cands = append(ws.cands, r)
		}
	}
	run.foldDeltas()
}

// slackBuckets is the number of power-of-two slack classes the sweep
// counts to choose τ: class b holds slacks below 2^(b+slackMinExp), and
// class 0 also every smaller or non-positive one.
const (
	slackBuckets = 64
	slackMinExp  = -62
)

// slackBucket returns the class of a finite slack.
func slackBucket(s float64) int {
	if s <= 0 {
		return 0
	}
	_, e := math.Frexp(s) // s < 2^e
	return min(max(e-slackMinExp, 0), slackBuckets-1)
}

// sweep visits every row. A -1 row gets its exact two closest
// centroids; every other row is checked as the pruned pass checks it,
// against its effective bounds. Every row's bounds are then stored
// plainly, the offsets reset, and the candidate list rebuilt. If the
// rows that arrived labeled are not exactly the ones the carried counts
// account for, the moments are rebuilt from all labels.
func (run warmRun) sweep() {
	ws := run.ws
	off, g, dim := ws.offsets, ws.maxOffset, run.dim
	// Rows whose slack is near where the last list was cut get exact
	// bounds (none in the first sweep of a state).
	tighten := 2 * ws.slack
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		run.resetChunk(p)
		if p.hist == nil {
			p.hist = make([]int, slackBuckets)
		}
		clear(p.hist)
		labeled := 0
		farD, farIdx := p.farD, p.farIdx
		for i := lo; i < hi; i++ {
			a := int(run.labels[i])
			var u, l float64
			if a < 0 {
				row := run.row(i)
				bi, bd, sd := run.closestTwo(row)
				u, l = math.Sqrt(bd), math.Sqrt(sd)
				run.labels[i] = int32(bi)
				run.move(p, i, -1, row)
				a = bi
			} else {
				labeled++
				u, l = run.upper[i]+off[a], run.lower[i]-g
				if m := max(run.half[a], l); u > m || m-u < tighten {
					row := run.row(i)
					exact := false
					if u > m {
						if u = math.Sqrt(sqDistTo(row, run.pos[a*dim:(a+1)*dim])); u > m {
							bi, bd, sd := run.closestTwo(row)
							u, l, exact = math.Sqrt(bd), math.Sqrt(sd), true
							if bi != a {
								run.labels[i] = int32(bi)
								run.move(p, i, a, row)
								a = bi
							}
						}
					}
					// Loose bounds understate the slack; near the cut
					// they are recomputed, keeping the label (which
					// they proved) on an exact tie.
					if !exact && max(run.half[a], l)-u < tighten {
						if bi, bd, sd := run.closestTwo(row); bi == a {
							u, l = math.Sqrt(bd), math.Sqrt(sd)
						}
					}
				}
				// A negative lower bound never prunes (the half
				// distances are ≥ 0), so storing it as 0 changes no
				// decision and keeps every stored bound non-negative.
				l = max(l, 0)
			}
			run.upper[i], run.lower[i] = u, l
			ws.out[i] = a
			if u > farD {
				farD, farIdx = u, i
			}
			if s := max(run.half[a], l) - u; !math.IsInf(s, 1) {
				p.hist[slackBucket(s)]++
			}
		}
		p.farD, p.farIdx = farD, farIdx
		p.labeled = labeled
	})
	labeled, counted := 0, 0
	var hist [slackBuckets]int
	for c := range run.parts {
		labeled += run.parts[c].labeled
		for b, v := range run.parts[c].hist {
			hist[b] += v
		}
	}
	for _, n := range run.counts {
		counted += n
	}
	if labeled == counted {
		run.foldDeltas()
	} else {
		run.resum()
	}
	clear(ws.offsets)
	ws.maxOffset = 0

	// τ is the largest class edge with at most one row in 32 below it.
	target, below, b := max(run.n/32, 256), hist[0], 0
	for b+1 < slackBuckets && below+hist[b+1] <= target {
		b++
		below += hist[b]
	}
	ws.slack = math.Ldexp(1, b+slackMinExp)
	if b == slackBuckets-1 {
		ws.slack = math.Inf(1)
	}
	parallelChunks(len(run.parts), run.workers, func(c int) {
		p := &run.parts[c]
		lo, hi := run.chunkBounds(c)
		p.cands = p.cands[:0]
		for i := lo; i < hi; i++ {
			if max(run.half[run.labels[i]], run.lower[i])-run.upper[i] < ws.slack {
				p.cands = append(p.cands, int32(i))
			}
		}
	})
	ws.cands = ws.cands[:0]
	for c := range run.parts {
		ws.cands = append(ws.cands, run.parts[c].cands...)
	}
	ws.candBase = len(ws.cands)
	ws.dirty = ws.dirty[:0]
	ws.tracked = true
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

// result serves a finished resume from the state: the labels it keeps,
// the final positions, and the inertia from the moments in O(k·dim):
// Σ_c max(0, Q_c − 2c·S_c + n_c‖c‖²).
func (run warmRun) result(iterations int) *KMeansResult {
	k, dim := run.k, run.dim
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
		Labels:     run.ws.out[:run.n],
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
func captureWarm(m *mat.Matrix, res *KMeansResult, workers int) *KMeansWarmState {
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
// always bit-identical to PairwiseMatrix over the same rows.
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
