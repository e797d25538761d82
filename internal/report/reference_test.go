package report

import (
	"math/big"
	"reflect"
	"slices"
	"sort"
	"testing"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/stats"
)

// The naive reference for Analyze: every figure recomputed from the
// dataset's user records with the most direct arithmetic available —
// per-user counts in a map, Equation 1 by counting, Equation 3 as
// big.Rat group sums rounded once, Equation 4 from directly counted 2×2
// tables, and the plain clustering entry points. It shares no code with
// the engine's accumulators, caches or warm state, so a figure that both
// agree on bit for bit is the paper's figure.

// refUser is one user record's part in the figures.
type refUser struct {
	id     int64
	state  int // geo.StateCodes() row, -1 when unknown
	counts [organ.Count]int
	total  int
}

// mentions reports whether the user mentions organ j.
func (u *refUser) mentions(j int) bool { return u.counts[j] > 0 }

// referenceAnalysis computes every artifact of Analyze for d from its
// user records, returning Û as its user ids and rows instead of in
// Analysis.Attention. Table I's tweet-level scalars (collection window, tweet
// totals, geo-tag rate) and Figure 2(b)'s tweet histogram count tweets,
// which no user record holds; they are read from the dataset, and every
// user-level number is counted here.
func referenceAnalysis(t *testing.T, d *pipeline.Dataset, cfg AnalysisConfig) (*Analysis, []int64, *mat.Matrix) {
	t.Helper()
	byID := map[int64]refUser{}
	d.EachUser(func(r *pipeline.UserRecord) {
		u := refUser{id: r.ID, state: geo.StateIndex(r.StateCode), counts: r.Mentions}
		for _, c := range r.Mentions {
			u.total += c
		}
		byID[r.ID] = u
	})
	all := make([]refUser, 0, len(byID))
	for _, u := range byID {
		all = append(all, u)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })

	a := &Analysis{KUsers: cfg.KUsers}

	// Table I and Figure 2, counted from the records.
	a.Stats = d.Stats()
	a.Stats.Users = len(all)
	distinct := 0
	for _, u := range all {
		k := 0
		for j := range u.counts {
			if u.mentions(j) {
				a.Popularity[j]++
				k++
			}
		}
		if k > 0 {
			a.MultiUsers[k-1]++
		}
		distinct += k
	}
	if a.Stats.Users > 0 {
		a.Stats.AvgTweetsPerUser = float64(a.Stats.TweetsCollected) / float64(a.Stats.Users)
		a.Stats.OrgansPerUser = float64(distinct) / float64(a.Stats.Users)
	}
	a.MultiTweets = d.TweetOrganHistogram()
	x := make([]float64, organ.Count)
	for j, c := range a.Popularity {
		x[j] = float64(c)
	}
	var err error
	if a.Spearman, err = stats.Spearman(x, organ.TransplantCounts()); err != nil {
		t.Fatal(err)
	}

	// Û: the users with a mention, by ascending id, each row its counts
	// over their total.
	var users []refUser
	for _, u := range all {
		if u.total > 0 {
			users = append(users, u)
		}
	}
	ids := make([]int64, len(users))
	u := mat.New(len(users), organ.Count)
	for r, usr := range users {
		ids[r] = usr.id
		for j, c := range usr.counts {
			u.Set(r, j, float64(c)/float64(usr.total))
		}
	}

	// Figures 3 and 4: Equation 3 over Equation 1's and Equation 2's
	// groups.
	k, sizes, _ := ratGroupMeans(u, organ.Count, func(r int) int { return refPrimary(&users[r]) })
	a.Organs = &core.OrganCharacterization{K: k, GroupSizes: sizes}
	codes := geo.StateCodes()
	k, sizes, empty := ratGroupMeans(u, len(codes), func(r int) int { return users[r].state })
	a.Regions = &core.RegionCharacterization{K: k, StateCodes: codes, GroupSizes: sizes, EmptyStates: empty}

	a.Highlight, a.Baseline = refHighlight(users)

	// Figure 6 over the non-empty state rows.
	rows, stateCodes := a.Regions.NonEmptyRows()
	a.StateCodes = stateCodes
	if len(rows) >= 2 {
		if a.StateDist, err = cluster.PairwiseMatrix(rows, cluster.Bhattacharyya, 1); err != nil {
			t.Fatal(err)
		}
		if a.Dendrogram, err = cluster.Agglomerative(a.StateDist, cluster.AverageLinkage); err != nil {
			t.Fatal(err)
		}
	}

	// Figure 7 and the sweep: cold runs over the rebuilt Û.
	if cfg.KUsers > 0 && u.Rows() >= cfg.KUsers {
		if a.Clusters, err = cluster.KMeans(u, cluster.KMeansConfig{
			K: cfg.KUsers, Seed: cfg.Seed, Restarts: 2, Workers: cfg.Workers,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(cfg.SweepKs) > 0 && u.Rows() > slices.Max(cfg.SweepKs) {
		if a.Sweep, err = cluster.SweepK(u, cfg.SweepKs, cfg.Seed, cfg.SilhouetteSample, cfg.Workers); err != nil {
			t.Fatal(err)
		}
	}
	return a, ids, u
}

// checkReference asserts a is bit-identical to the reference analysis
// of d, Figure 7 included.
func checkReference(t *testing.T, a *Analysis, d *pipeline.Dataset, cfg AnalysisConfig) {
	t.Helper()
	ref, ids, u := referenceAnalysis(t, d, cfg)
	if !reflect.DeepEqual(a.Attention.UserIDs(), ids) {
		t.Fatal("attention users differ from the reference")
	}
	floatsIdentical(t, "reference attention", a.Attention.Matrix().Data(), u.Data())
	compareFigures(t, a, ref)
	if !reflect.DeepEqual(a.Clusters, ref.Clusters) {
		t.Fatal("user clusters differ from the reference")
	}
}

// refPrimary is Equation 1 as Attention.PrimaryOrgan defines it: the
// most-mentioned organ, an exact tie resolved by a splitmix64 hash of
// the user id picking among the tied organs in canonical order.
func refPrimary(u *refUser) int {
	best := 0
	for _, c := range u.counts {
		best = max(best, c)
	}
	var tied []int
	for j, c := range u.counts {
		if c == best {
			tied = append(tied, j)
		}
	}
	if len(tied) == 1 {
		return tied[0]
	}
	x := uint64(u.id) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return tied[x%uint64(len(tied))]
}

// ratGroupMeans is Equation 3 for a disjoint membership: each group's
// rows summed exactly in big.Rat, rounded once, times fl(1/n). groupOf
// returns a row's group, or -1 for none. It also returns the group sizes
// and the groups with no rows.
func ratGroupMeans(u *mat.Matrix, groups int, groupOf func(r int) int) (*mat.Matrix, []int, []int) {
	sums := make([]big.Rat, groups*organ.Count)
	sizes := make([]int, groups)
	var v big.Rat
	for r := 0; r < u.Rows(); r++ {
		g := groupOf(r)
		if g < 0 {
			continue
		}
		sizes[g]++
		for j, x := range u.RowView(r) {
			sums[g*organ.Count+j].Add(&sums[g*organ.Count+j], v.SetFloat64(x))
		}
	}
	k := mat.New(groups, organ.Count)
	var empty []int
	for g, n := range sizes {
		if n == 0 {
			empty = append(empty, g)
			continue
		}
		inv := 1 / float64(n)
		for j := 0; j < organ.Count; j++ {
			s, _ := sums[g*organ.Count+j].Float64()
			k.Set(g, j, s*inv)
		}
	}
	return k, sizes, empty
}

// refHighlight is Equation 4 from directly counted 2×2 tables, over the
// users with a known state: a mentioning users inside the state, b the
// state's other users, c and d the same outside it. It also returns the
// winner-takes-all baseline: per state, the organ most users mention
// (ties to the lower organ), -1 for a state without users.
func refHighlight(users []refUser) (*core.HighlightResult, map[string]organ.Organ) {
	codes := geo.StateCodes()
	h := &core.HighlightResult{Risks: make([][]core.StateOrganRisk, len(codes)), StateCodes: codes}
	winner := make(map[string]organ.Organ, len(codes))
	for s, code := range codes {
		h.Risks[s] = make([]core.StateOrganRisk, organ.Count)
		winner[code] = organ.Organ(-1)
		best := 0
		for j := 0; j < organ.Count; j++ {
			var a, b, c, d int
			for i := range users {
				usr := &users[i]
				switch {
				case usr.state < 0:
				case usr.state == s && usr.mentions(j):
					a++
				case usr.state == s:
					b++
				case usr.mentions(j):
					c++
				default:
					d++
				}
			}
			risk := core.StateOrganRisk{StateCode: code, Organ: organ.Organ(j)}
			if rr, err := stats.NewRelativeRisk(a, b, c, d); err == nil {
				risk.RR, risk.Defined = rr, true
			} else if rr, err := stats.ContinuityRelativeRisk(a, b, c, d); err == nil {
				risk.Continuity, risk.ContinuityDefined = rr, true
			}
			h.Risks[s][j] = risk
			if a+b > 0 && (winner[code] < 0 || a > best) {
				winner[code], best = organ.Organ(j), a
			}
		}
	}
	return h, winner
}
