package report

import (
	"fmt"
	"sort"
	"time"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/geo"
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
// The produced *Analysis is bit-identical to what Analyze would compute
// over the same dataset (with Warm off; warm K-Means is converged-equal,
// reached through a resumed rather than restarted run).
//
// Cost of a warm Refresh. The per-user work — classifying the dirty
// rows, the accumulator updates, the splice plan, the K-Means
// re-assignment of changed rows — is O(users changed). What remains
// O(users) is a fixed set of allocation-free memory sweeps: splicing Û,
// its id column and the row-aligned columns (state and primary-organ
// shadows, K-Means labels and bounds) when users enter or leave it; one
// pass over Û for both Equation 3 aggregations; and the K-Means sweeps —
// a label scan, a bounds check per Lloyd iteration, and the final pass
// that computes the exact inertia. None of them copies or allocates an
// O(users) structure, and none grows with corpus age.
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

	// Warm resumes K-Means from the previous refresh's converged state
	// (labels of changed rows invalidated) instead of cold-starting with
	// restarts. On: refreshes stop paying the dominant clustering cost.
	// Off: every refresh's clustering is bit-identical to Analyze's.
	Warm bool

	att *core.Attention

	// Row-aligned shadow of Û: each row's geo.StateCodes() row (-1
	// unresolvable) and primary-organ group — the two Equation 3
	// groupings, and what the accumulators need about the previous state
	// of a changed user besides its mention mask, which its old Û row
	// still gives.
	states    []int16
	primaries []int16

	// Subtractable group-size counters for the two characterizations.
	orgSizes []int
	regSizes []int

	// Integer accumulators: Figure 5 / winner-takes-all cells, and the
	// Figure 2 / Table I mention-mask statistics.
	cells *core.StateOrganCells
	ment  core.MentionAccum

	// Previous characterizations; clean group rows are carried over
	// bit-for-bit by the dirty-group recompute.
	organs  *core.OrganCharacterization
	regions *core.RegionCharacterization

	// Clustering warm state: the keyed pairwise-distance cache (Figure 6)
	// and the resumable K-Means state (Figure 7).
	pc     cluster.PairwiseCache
	kmWarm *cluster.KMeansWarmState

	metrics *EngineMetrics
	tracer  *trace.Tracer

	refreshes   uint64
	lastDirty   int
	lastLatency time.Duration
	lastCold    bool
}

// NewEngine wraps a dataset for incremental analysis, enabling its
// change tracking. The first Refresh is a cold build; subsequent ones
// consume deltas. Warm-started K-Means is on by default.
func NewEngine(d *pipeline.Dataset, cfg AnalysisConfig) *Engine {
	d.EnableDeltaTracking()
	return &Engine{d: d, cfg: cfg, Warm: true}
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

// Refresh drains the dataset's change delta and returns the analysis of
// the current state. The first call (and any call after an error
// poisoned the incremental state) runs a cold build. An empty delta
// still produces a complete, current *Analysis — the tweet-level Table I
// scalars can move without any user row changing.
func (e *Engine) Refresh() (*Analysis, error) {
	start := time.Now()
	sp := e.tracer.StartRoot("report.refresh")
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
		dirty = delta.Rows.Count() + len(delta.Deleted)
		a, err = e.incremental(delta.Rows.Each, delta.Rows.Count(), delta.Deleted)
		if err != nil {
			// The partial state is unusable; the next Refresh rebuilds.
			e.reset()
		}
	}
	e.lastDirty, e.lastLatency, e.lastCold = dirty, time.Since(start), cold
	if err == nil {
		e.refreshes++
	}
	if m := e.metrics; m != nil {
		m.refresh.Since(start)
		m.epoch.Set(float64(e.Epoch()))
		m.dirty.Set(float64(dirty))
	}
	if sp != nil {
		sp.SetInt("dirty_rows", int64(dirty))
		sp.SetInt("epoch", int64(e.Epoch()))
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

// reset drops all incremental state so the next Refresh cold-builds.
func (e *Engine) reset() {
	e.att = nil
	e.states, e.primaries = nil, nil
	e.orgSizes, e.regSizes = nil, nil
	e.cells, e.ment = nil, core.MentionAccum{}
	e.organs, e.regions = nil, nil
	e.pc = cluster.PairwiseCache{}
	e.kmWarm = nil
}

// coldBuild computes everything from scratch — the same work Analyze
// does, through the cache- and accumulator-aware entry points — and
// seeds the incremental state from the results.
func (e *Engine) coldBuild() (*Analysis, error) {
	att, states, err := e.d.BuildAttentionStates()
	if err != nil {
		return nil, fmt.Errorf("report: attention: %w", err)
	}
	e.att = att

	n := att.Users()
	e.states = states
	e.primaries = make([]int16, n)
	e.orgSizes = make([]int, organ.Count)
	e.regSizes = make([]int, len(geo.StateCodes()))
	e.cells = core.NewStateOrganCells()
	e.ment = core.MentionAccum{}
	for row := 0; row < n; row++ {
		mask := core.MentionMask(att, row)
		prim := int16(att.PrimaryOrgan(row).Index())
		si := states[row]
		e.primaries[row] = prim
		e.orgSizes[prim]++
		if si >= 0 {
			e.regSizes[si]++
			e.cells.AddUser(int(si), mask, 1)
		}
		e.ment.AddMask(mask, 1)
	}
	if err := e.characterize(nil, nil); err != nil {
		return nil, err
	}
	return e.assemble(func(string) bool { return true })
}

// characterize recomputes the dirty rows of Figures 3 and 4 (every row
// when the dirty sets are nil) in one pass over Û.
func (e *Engine) characterize(orgDirty, regDirty []bool) error {
	var err error
	e.organs, e.regions, err = core.CharacterizeDelta(e.att,
		core.Grouping{Of: e.primaries, Sizes: e.orgSizes, Dirty: orgDirty}, e.organs,
		core.Grouping{Of: e.states, Sizes: e.regSizes, Dirty: regDirty}, e.regions)
	if err != nil {
		return fmt.Errorf("report: figures 3 and 4: %w", err)
	}
	return nil
}

// pendingChange is one user whose Û row changes this refresh.
type pendingChange struct {
	id     int64
	mask   uint8
	state  int16
	counts [organ.Count]int32
	oldRow int // pre-patch att row; -1 = insert
	// previous shadow values when oldRow >= 0
	oldMask  uint8
	oldState int16
	oldPrim  int16
}

// incremental folds one drained delta into the cached state. eachRow
// iterates the dirty store rows (valid against the live store, rows of
// them), deleted lists removed user ids — userstore.Delta's contract.
func (e *Engine) incremental(eachRow func(func(uint32)), rows int, deleted []int64) (*Analysis, error) {
	removed := make(map[int64]bool, len(deleted))
	for _, id := range deleted {
		removed[id] = true
	}

	// Classify dirty rows against the previous Û: nonzero rows are
	// updates or inserts; rows whose mentions dropped to zero leave Û
	// through removes, mirroring AttentionFromCounts' zero-row filter.
	ups := make([]pendingChange, 0, rows)
	var removes []int64
	eachRow(func(row uint32) {
		id, code, ments := e.d.UserAt(row)
		// A deleted id that is live again nets out to an update/insert.
		delete(removed, id)
		var cnt [organ.Count]int32
		copy(cnt[:], ments)
		sum := int32(0)
		mask := uint8(0)
		for j, v := range cnt {
			sum += v
			if v > 0 {
				mask |= 1 << j
			}
		}
		oldRow := e.att.RowOf(id)
		if sum == 0 {
			if oldRow >= 0 {
				removes = append(removes, id)
			}
			return
		}
		si := int16(-1)
		if s := geo.StateIndex(code); s >= 0 {
			si = int16(s)
		}
		ups = append(ups, pendingChange{id: id, mask: mask, state: si, counts: cnt, oldRow: oldRow})
	})
	for id := range removed {
		if e.att.RowOf(id) >= 0 {
			removes = append(removes, id)
		}
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].id < ups[j].id })
	sort.Slice(removes, func(i, j int) bool { return removes[i] < removes[j] })

	// The K-Means warm state is row-aligned with Û and is kept aligned
	// through the splice below; with Warm off it is recaptured cold on
	// every refresh, so there is nothing to keep.
	ws := e.kmWarm
	if !e.Warm || (ws != nil && len(ws.Labels) != e.att.Users()) {
		ws, e.kmWarm = nil, nil
	}

	// Capture previous shadow values, and take every changed or removed
	// row out of its K-Means cluster, while the old Û rows are still in
	// place. The accumulators are only touched after Patch succeeds; the
	// K-Means state is touched before, but any error resets the engine
	// and the next Refresh rebuilds it cold.
	u := e.att.Matrix()
	for i := range ups {
		up := &ups[i]
		if up.oldRow < 0 {
			continue
		}
		up.oldMask = core.MentionMask(e.att, up.oldRow)
		up.oldState = e.states[up.oldRow]
		up.oldPrim = e.primaries[up.oldRow]
		if ws != nil {
			ws.Unassign(up.oldRow, u.RowView(up.oldRow))
		}
	}
	type removal struct {
		mask  uint8
		state int16
		prim  int16
	}
	rms := make([]removal, len(removes))
	for i, id := range removes {
		row := e.att.RowOf(id)
		rms[i] = removal{mask: core.MentionMask(e.att, row), state: e.states[row], prim: e.primaries[row]}
		if ws != nil {
			ws.Unassign(row, u.RowView(row))
		}
	}

	upIDs := make([]int64, len(ups))
	upCounts := make([]int32, 0, len(ups)*organ.Count)
	for i := range ups {
		upIDs[i] = ups[i].id
		upCounts = append(upCounts, ups[i].counts[:]...)
	}
	sp, err := e.att.Patch(upIDs, upCounts, removes)
	if err != nil {
		return nil, fmt.Errorf("report: patch: %w", err)
	}
	// Replay Patch's row moves on every row-aligned column.
	e.states = core.SpliceColumn(sp, e.states, 1)
	e.primaries = core.SpliceColumn(sp, e.primaries, 1)
	if ws != nil {
		ws.Labels = core.SpliceColumn(sp, ws.Labels, 1)
		ws.Upper = core.SpliceColumn(sp, ws.Upper, 1)
		ws.Lower = core.SpliceColumn(sp, ws.Lower, 1)
	}

	orgDirty := make([]bool, organ.Count)
	regDirty := make([]bool, len(e.regSizes))
	sub := func(mask uint8, state, prim int16) {
		e.ment.AddMask(mask, -1)
		e.orgSizes[prim]--
		orgDirty[prim] = true
		if state >= 0 {
			e.cells.AddUser(int(state), mask, -1)
			e.regSizes[state]--
			regDirty[state] = true
		}
	}
	add := func(mask uint8, state, prim int16) {
		e.ment.AddMask(mask, 1)
		e.orgSizes[prim]++
		orgDirty[prim] = true
		if state >= 0 {
			e.cells.AddUser(int(state), mask, 1)
			e.regSizes[state]++
			regDirty[state] = true
		}
	}
	for i := range ups {
		up := &ups[i]
		if up.oldRow >= 0 {
			sub(up.oldMask, up.oldState, up.oldPrim)
		}
		row := e.att.RowOf(up.id)
		prim := int16(e.att.PrimaryOrgan(row).Index())
		e.states[row], e.primaries[row] = up.state, prim
		add(up.mask, up.state, prim)
		if ws != nil {
			ws.Labels[row] = -1 // inserted rows join the re-assignment
		}
	}
	for _, rm := range rms {
		sub(rm.mask, rm.state, rm.prim)
	}

	if err := e.characterize(orgDirty, regDirty); err != nil {
		return nil, err
	}
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
	d, cfg := e.d, e.cfg
	a := &Analysis{
		Stats:      d.StatsFromDistinct(int(e.ment.DistinctPairs)),
		Popularity: e.ment.UsersPerOrgan(),
		KUsers:     cfg.KUsers,
		MultiUsers: e.ment.MultiOrganUsers(),
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
	a.StateOf = d.StateLookup()
	a.Organs, a.Regions = e.organs, e.regions

	if a.Highlight, err = e.cells.Highlight(); err != nil {
		return nil, fmt.Errorf("report: figure 5: %w", err)
	}
	if a.Baseline, err = e.cells.WinnerTakesAll(); err != nil {
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
		warm := e.kmWarm
		if !e.Warm {
			warm = nil
		}
		res, ws, _, kerr := cluster.KMeansDenseWarm(u, cluster.KMeansConfig{
			K: cfg.KUsers, Seed: cfg.Seed, Restarts: 2, Workers: cfg.Workers,
		}, warm)
		if kerr != nil {
			return nil, fmt.Errorf("report: figure 7: %w", kerr)
		}
		a.Clusters = res
		e.kmWarm = ws
	}
	if len(cfg.SweepKs) > 0 && u.Rows() > maxInt(cfg.SweepKs) {
		if a.Sweep, err = cluster.SweepKDense(u, cfg.SweepKs, cfg.Seed, cfg.SilhouetteSample, cfg.Workers); err != nil {
			return nil, fmt.Errorf("report: k sweep: %w", err)
		}
	}
	return a, nil
}
