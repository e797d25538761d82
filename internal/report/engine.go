package report

import (
	"fmt"
	"sort"
	"time"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/obs/trace"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/stats"
)

// Engine is the incremental counterpart of Analyze: it keeps every
// intermediate of the full analysis alive between calls — the
// epoch-versioned Û, the integer accumulators behind Table I / Figure 2 /
// Figure 5, the per-group characterization state, the pairwise-distance
// cache, and the K-Means warm state — and on each Refresh folds in only
// the users the dataset changed since the previous one (DESIGN.md §14).
// Analyze is this engine's cold build, so a refresh's *Analysis is
// bit-identical to Analyze over the same dataset in everything but Û's
// row order and Figure 7. Û holds every user's bit-identical row, in the
// order the refreshes left (Attention.RowOf finds a user). The K-Means
// clustering resumes from the previous refresh's converged state (labels
// of changed rows invalidated) instead of restarting, and is
// converged-equal to a cold run rather than bit-identical.
//
// Cost of a warm Refresh. The per-user work — classifying the dirty
// rows, the accumulator updates (including the exact Equation 3 group
// sums, so Figures 3 and 4 cost O(users changed + groups)), the Û patch,
// the K-Means re-assignment of changed rows — is O(users changed). Û
// keeps its own row order: a new user's row is appended to Û and to the
// row-aligned columns (the state shadow and the K-Means labels and
// bounds), and no user ever leaves, so no row moves. The K-Means
// resume carries its bounds lazily and visits only rows whose bounds
// could fail. What remains O(users) is rare and amortized: regrowing a
// column past its bounded headroom, doubling Û's id → row index, the
// index's first build at the first warm refresh, and the K-Means sweep
// that re-states every row's bounds once the centroids have drifted by
// the slack the candidate list was cut at. Figure 7's inertia comes from carried moments, so no
// refresh reads Û except where a row changed or a bound failed.
//
// The returned *Analysis shares the engine's Û and K-Means result
// memory; it holds until the next Refresh. Callers that keep parts of it
// across refreshes copy them (the serve layer's Publish does).
//
// The engine owns the dataset's change feed: NewEngine enables delta
// tracking and every Refresh drains it. It is single-threaded like the
// Dataset itself — callers serialize Refresh with dataset mutation.
type Engine struct {
	d   *pipeline.Dataset
	cfg AnalysisConfig

	att *core.Attention

	// Row-aligned shadow of Û: each row's geo.StateCodes() row (-1
	// unresolvable), the one thing the accumulators need about the
	// previous state of a changed user that its old Û row (values,
	// mention mask, primary organ) does not give.
	states []int16

	// Every user's contribution to Table I, Figures 2–5 and the
	// winner-takes-all baseline, held subtractably.
	acc *accumulators

	// Characterizations computed from the group sums.
	organs  *core.OrganCharacterization
	regions *core.RegionCharacterization

	// Clustering warm state: the keyed pairwise-distance cache (Figure 6)
	// and the resumable K-Means state (Figure 7).
	pc     cluster.PairwiseCache
	kmWarm *cluster.KMeansWarmState

	metrics *EngineMetrics
	tracer  *trace.Tracer

	// Per-stage time of the current refresh, reported on its span.
	stages [numStages]time.Duration

	restored    string // the path RestoreWarm took
	refreshes   uint64
	lastDirty   int
	lastLatency time.Duration
	lastCold    bool
}

// NewEngine wraps a dataset for incremental analysis, enabling its
// change tracking. The first Refresh is a cold build; subsequent ones
// consume deltas.
func NewEngine(d *pipeline.Dataset, cfg AnalysisConfig) *Engine {
	d.EnableDeltaTracking()
	return &Engine{d: d, cfg: cfg, restored: RestoreNone}
}

// SetMetrics attaches refresh instrumentation (nil disables).
func (e *Engine) SetMetrics(m *EngineMetrics) { e.metrics = m }

// SetTracer attaches a tracer; each Refresh emits a report.refresh span.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Epoch returns the attention matrix's patch epoch (0 before the first
// Refresh and right after a cold build).
func (e *Engine) Epoch() uint64 {
	if e.att == nil {
		return 0
	}
	return e.att.Epoch()
}

// Refreshes returns how many Refresh calls have completed successfully.
func (e *Engine) Refreshes() uint64 { return e.refreshes }

// LastRefresh reports the previous Refresh: rows applied, latency, and
// whether it was a cold build — the /statusz analytics section's feed.
func (e *Engine) LastRefresh() (dirtyRows int, latency time.Duration, cold bool) {
	return e.lastDirty, e.lastLatency, e.lastCold
}

// Refresh stages, in order, timed on the report.refresh span and on the
// donorsense_analyze_stage_seconds histogram. On a cold build the patch
// stage is the build of Û.
const (
	stagePatch        = iota // Û patch and the replay on its row-aligned columns
	stageCharacterize        // accumulator updates and Figures 3 and 4
	stageKMeans              // Figure 7
	stageAssemble            // everything else the Analysis needs
	numStages
)

var stageAttrs = [numStages]string{"patch_us", "characterize_us", "kmeans_us", "assemble_us"}

// Refresh drains the dataset's change delta and returns the analysis of
// the current state. The first call (and any call after an error
// poisoned the incremental state) runs a cold build. An empty delta
// still produces a complete, current *Analysis — the tweet-level Table I
// scalars can move without any user row changing.
func (e *Engine) Refresh() (*Analysis, error) {
	start := time.Now()
	sp := e.tracer.StartRoot("report.refresh")
	e.stages = [numStages]time.Duration{}
	var (
		a     *Analysis
		err   error
		dirty int
	)
	cold := e.att == nil
	if cold {
		// A cold build reflects the live store; discard any pending delta.
		e.d.DrainDelta()
		a, err = e.coldBuild()
	} else {
		delta := e.d.DrainDelta()
		dirty = delta.Rows.Count()
		a, err = e.incremental(delta.Rows.Each, dirty)
	}
	if err != nil {
		// The partial state is unusable; the next Refresh rebuilds.
		e.reset()
	}
	e.lastDirty, e.lastLatency, e.lastCold = dirty, time.Since(start), cold
	if err == nil {
		e.refreshes++
	}
	if m := e.metrics; m != nil {
		m.refresh.Since(start)
		m.epoch.Set(float64(e.Epoch()))
		m.dirty.Set(float64(dirty))
		for i, d := range e.stages {
			m.stages[i].Observe(d.Seconds())
		}
	}
	if sp != nil {
		// At most eight attributes fit a span: two always, four stages,
		// and cold and error when they apply.
		sp.SetInt("dirty_rows", int64(dirty))
		sp.SetInt("epoch", int64(e.Epoch()))
		for i, d := range e.stages {
			sp.SetInt(stageAttrs[i], d.Microseconds())
		}
		if cold {
			sp.SetAttr("cold", "true")
		}
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return a, err
}

// lap charges the time since *since to stage and restarts the clock.
func (e *Engine) lap(stage int, since *time.Time) {
	now := time.Now()
	e.stages[stage] += now.Sub(*since)
	*since = now
}

// reset drops all incremental state so the next Refresh cold-builds.
func (e *Engine) reset() {
	e.att = nil
	e.states = nil
	e.acc = nil
	e.organs, e.regions = nil, nil
	e.pc = cluster.PairwiseCache{}
	e.kmWarm = nil
}

// coldBuild computes everything from scratch and seeds the incremental
// state from the results. It is all of Analyze.
func (e *Engine) coldBuild() (*Analysis, error) {
	clock := time.Now()
	att, states, err := e.d.BuildAttentionStates(nil)
	if err != nil {
		return nil, fmt.Errorf("report: attention: %w", err)
	}
	e.att = att
	e.states = states
	e.lap(stagePatch, &clock)

	e.acc = newAccumulators()
	for r := 0; r < att.Users(); r++ {
		ur := e.userRow(r)
		if err := e.acc.fold(&ur, 1); err != nil {
			return nil, err
		}
	}
	if err := e.characterize(); err != nil {
		return nil, err
	}
	e.lap(stageCharacterize, &clock)
	return e.assemble(func(string) bool { return true })
}

// userRow is one user's contribution to the accumulators, read from Û
// row r and the state shadow.
type userRow struct {
	u     [organ.Count]float64
	mask  uint8
	state int16
	prim  int16
}

func (e *Engine) userRow(r int) userRow {
	ur := userRow{state: e.states[r], prim: int16(e.att.PrimaryOrgan(r).Index())}
	copy(ur.u[:], e.att.Matrix().RowView(r))
	for j, v := range ur.u {
		if v > 0 {
			ur.mask |= 1 << j
		}
	}
	return ur
}

// accumulators hold every user's contribution subtractably: the Figure
// 2 / Table I mention-mask statistics, the Figure 5 / winner-takes-all
// cells (integer counts), and the exact Equation 3 group sums — Figure 3
// by primary organ, Figure 4 by state.
type accumulators struct {
	ment    core.MentionAccum
	cells   *core.StateOrganCells
	orgSums *core.GroupSums
	regSums *core.GroupSums
}

func newAccumulators() *accumulators {
	return &accumulators{
		cells:   core.NewStateOrganCells(),
		orgSums: core.NewGroupSums(organ.Count),
		regSums: core.NewGroupSums(len(geo.StateCodes())),
	}
}

// fold adds (sign 1) or subtracts (sign -1) a user's contribution.
func (ac *accumulators) fold(ur *userRow, sign int) error {
	ac.ment.AddMask(ur.mask, sign)
	if err := ac.orgSums.Fold(int(ur.prim), ur.u[:], sign); err != nil {
		return fmt.Errorf("report: figure 3: %w", err)
	}
	if ur.state >= 0 {
		ac.cells.AddUser(int(ur.state), ur.mask, sign)
		if err := ac.regSums.Fold(int(ur.state), ur.u[:], sign); err != nil {
			return fmt.Errorf("report: figure 4: %w", err)
		}
	}
	return nil
}

// characterize computes Figures 3 and 4 from the group sums.
func (e *Engine) characterize() error {
	var err error
	if e.organs, err = e.acc.orgSums.Organs(); err != nil {
		return fmt.Errorf("report: figure 3: %w", err)
	}
	if e.regions, err = e.acc.regSums.Regions(); err != nil {
		return fmt.Errorf("report: figure 4: %w", err)
	}
	return nil
}

// pendingChange is one user whose Û row changes this refresh.
type pendingChange struct {
	id     int64
	state  int16
	counts [organ.Count]int32
	oldRow int     // pre-patch att row; -1 = insert
	old    userRow // the previous contribution when oldRow >= 0
}

// incremental folds one drained delta into the cached state. eachRow
// iterates the dirty store rows (valid against the live store, rows of
// them) — userstore.Delta's contract.
func (e *Engine) incremental(eachRow func(func(uint32)), rows int) (*Analysis, error) {
	clock := time.Now()

	// Classify dirty rows against the previous Û: nonzero rows are
	// updates or inserts. A zero-sum row is skipped, mirroring
	// AttentionFromCounts' zero-row filter; mention counts only grow, so
	// such a row never had a Û row either.
	ups := make([]pendingChange, 0, rows)
	eachRow(func(row uint32) {
		id, code, ments := e.d.UserAt(row)
		var cnt [organ.Count]int32
		copy(cnt[:], ments)
		sum := int32(0)
		for _, v := range cnt {
			sum += v
		}
		if sum == 0 {
			return
		}
		si := int16(-1)
		if s := geo.StateIndex(code); s >= 0 {
			si = int16(s)
		}
		ups = append(ups, pendingChange{id: id, state: si, counts: cnt, oldRow: e.att.RowOf(id)})
	})
	sort.Slice(ups, func(i, j int) bool { return ups[i].id < ups[j].id })

	// The K-Means warm state is row-aligned with Û and grows with it
	// below; a state restored for another Û is dropped, and the
	// clustering cold-starts.
	ws := e.kmWarm
	if ws != nil && len(ws.Labels) != e.att.Users() {
		ws, e.kmWarm = nil, nil
	}

	// Capture every changed user's previous contribution, and take its
	// row out of its K-Means cluster, while the old Û rows are
	// still in place. The accumulators are only touched after Patch
	// succeeds; the K-Means state is touched before, but any error resets
	// the engine and the next Refresh rebuilds it cold.
	u := e.att.Matrix()
	for i := range ups {
		up := &ups[i]
		if up.oldRow < 0 {
			continue
		}
		up.old = e.userRow(up.oldRow)
		if ws != nil {
			ws.Unassign(up.oldRow, u.RowView(up.oldRow))
		}
	}

	upIDs := make([]int64, len(ups))
	upCounts := make([]int32, 0, len(ups)*organ.Count)
	for i := range ups {
		upIDs[i] = ups[i].id
		upCounts = append(upCounts, ups[i].counts[:]...)
	}
	if err := e.att.Patch(upIDs, upCounts); err != nil {
		return nil, fmt.Errorf("report: patch: %w", err)
	}
	// Grow the row-aligned columns for the appended users. Inserted rows
	// join the K-Means re-assignment with label -1.
	e.states = mat.ResizeRows(e.states, e.att.Users(), 1)
	if ws != nil {
		ws.Grow(e.att.Users())
	}
	e.lap(stagePatch, &clock)

	// Subtract each previous contribution and add the new one; the states
	// touched either way are the dirty rows of Figure 6's distances.
	regDirty := make([]bool, len(geo.StateCodes()))
	for i := range ups {
		up := &ups[i]
		if up.oldRow >= 0 {
			if err := e.acc.fold(&up.old, -1); err != nil {
				return nil, err
			}
			if up.old.state >= 0 {
				regDirty[up.old.state] = true
			}
		}
		row := e.att.RowOf(up.id)
		e.states[row] = up.state
		ur := e.userRow(row)
		if err := e.acc.fold(&ur, 1); err != nil {
			return nil, err
		}
		if up.state >= 0 {
			regDirty[up.state] = true
		}
	}
	if err := e.characterize(); err != nil {
		return nil, err
	}
	e.lap(stageCharacterize, &clock)
	return e.assemble(func(code string) bool {
		s := geo.StateIndex(code)
		return s >= 0 && regDirty[s]
	})
}

// assemble turns the cached state into a complete *Analysis: integer
// accumulators feed Table I, Figure 2, Figure 5, and the baseline; the
// pairwise cache and warm K-Means state feed the clustering figures.
// stateDirty tells the distance cache which state rows changed.
func (e *Engine) assemble(stateDirty func(code string) bool) (*Analysis, error) {
	clock := time.Now()
	defer e.lap(stageAssemble, &clock)
	d, cfg := e.d, e.cfg
	a := &Analysis{
		Stats:      d.StatsFromDistinct(int(e.acc.ment.DistinctPairs)),
		Popularity: e.acc.ment.UsersPerOrgan(),
		KUsers:     cfg.KUsers,
		MultiUsers: e.acc.ment.MultiOrganUsers(),
	}
	a.MultiTweets = d.TweetOrganHistogram()

	x := make([]float64, organ.Count)
	for i, c := range a.Popularity {
		x[i] = float64(c)
	}
	sp, err := stats.Spearman(x, organ.TransplantCounts())
	if err != nil {
		return nil, fmt.Errorf("report: popularity correlation: %w", err)
	}
	a.Spearman = sp

	a.Attention = e.att
	a.Organs, a.Regions = e.organs, e.regions

	if a.Highlight, err = e.acc.cells.Highlight(); err != nil {
		return nil, fmt.Errorf("report: figure 5: %w", err)
	}
	if a.Baseline, err = e.acc.cells.WinnerTakesAll(); err != nil {
		return nil, fmt.Errorf("report: winner-takes-all: %w", err)
	}

	rows, codes := a.Regions.NonEmptyRows()
	a.StateCodes = codes
	if len(rows) >= 2 {
		if a.StateDist, _, err = e.pc.Refresh(rows, codes, stateDirty, cluster.Bhattacharyya, cfg.Workers); err != nil {
			return nil, fmt.Errorf("report: figure 6 distances: %w", err)
		}
		if a.Dendrogram, err = e.pc.Dendrogram(cluster.AverageLinkage); err != nil {
			return nil, fmt.Errorf("report: figure 6 clustering: %w", err)
		}
	}

	u := e.att.Matrix()
	if cfg.KUsers > 0 && u.Rows() >= cfg.KUsers {
		e.lap(stageAssemble, &clock)
		res, ws, _, kerr := cluster.KMeansWarm(u, cluster.KMeansConfig{
			K: cfg.KUsers, Seed: cfg.Seed, Restarts: 2, Workers: cfg.Workers,
		}, e.kmWarm)
		e.lap(stageKMeans, &clock)
		if kerr != nil {
			return nil, fmt.Errorf("report: figure 7: %w", kerr)
		}
		a.Clusters = res
		e.kmWarm = ws
	}
	if err := a.RunSweep(cfg); err != nil {
		return nil, err
	}
	return a, nil
}
