package report

import (
	"math"
	"reflect"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

// engineTestConfig keeps the differential runs fast: no sweep, modest k.
func engineTestConfig() AnalysisConfig {
	cfg := DefaultAnalysisConfig()
	cfg.KUsers = 8
	cfg.SweepKs = nil
	cfg.SilhouetteSample = 0
	cfg.Workers = 2
	return cfg
}

// moveOrganGroups moves k users of d, each with one strictly
// most-mentioned organ, to another Equation 3 organ group without any
// deletion: each user tweets about another organ more often than about
// all organs so far, which makes that organ its primary one. Tweet ids
// start at firstID. It returns each moved user's new primary organ.
func moveOrganGroups(t *testing.T, d *pipeline.Dataset, k int, firstID int64) map[int64]organ.Organ {
	t.Helper()
	var users []pipeline.UserRecord
	d.EachUser(func(u *pipeline.UserRecord) {
		if _, unique, sum := strictTop(u.Mentions); len(users) < k && unique && sum > 0 {
			users = append(users, *u)
		}
	})
	if len(users) < k {
		t.Fatalf("only %d of %d users have a unique primary organ; fixture broken", len(users), k)
	}
	moved := make(map[int64]organ.Organ, k)
	id := firstID
	for _, u := range users {
		top, _, sum := strictTop(u.Mentions)
		to := organ.Organ((top + 1) % organ.Count)
		for n := 0; n <= sum; n++ {
			tw := twitter.Tweet{
				ID:        id,
				Text:      "please donate a " + to.String() + " today",
				CreatedAt: time.Unix(0, u.FirstSeen).Add(time.Hour),
				User:      twitter.User{ID: u.ID, Location: "Topeka, KS"},
			}
			id++
			if d.Process(tw) != pipeline.CollectedUS {
				t.Fatalf("group-move tweet for user %d not collected", u.ID)
			}
		}
		if got, _ := d.LookupUser(u.ID); got.Mentions[to] != u.Mentions[to]+sum+1 {
			t.Fatalf("user %d: %v mentions %d, want %d", u.ID, to, got.Mentions[to], u.Mentions[to]+sum+1)
		}
		moved[u.ID] = to
	}
	return moved
}

// strictTop returns the index of m's largest entry, whether no other
// entry ties it, and m's sum.
func strictTop(m [organ.Count]int) (top int, unique bool, sum int) {
	for i, v := range m {
		sum += v
		if v > m[top] {
			top = i
		}
	}
	unique = true
	for i, v := range m {
		unique = unique && (i == top || v < m[top])
	}
	return top, unique, sum
}

// checkOrganGroups asserts each moved user's primary organ in a.
func checkOrganGroups(t *testing.T, a *Analysis, moved map[int64]organ.Organ) {
	t.Helper()
	for id, want := range moved {
		if got := a.Attention.PrimaryOrgan(a.Attention.RowOf(id)); got != want {
			t.Fatalf("user %d primary organ %v, want %v", id, got, want)
		}
	}
}

// stateSwitchShard returns a dataset holding one tweet of a user of d,
// dated before that user's first retained tweet and located in another
// state. Merging it into d rewrites the user's state through Merge's
// first-tweet tie-break, which moves the user to another Equation 3
// region group without any deletion. It returns the user and its new
// state.
func stateSwitchShard(t *testing.T, d *pipeline.Dataset, tweetID int64) (*pipeline.Dataset, int64, string) {
	t.Helper()
	var u pipeline.UserRecord
	d.EachUser(func(r *pipeline.UserRecord) {
		if u.ID == 0 && (r.StateCode == "KS" || r.StateCode == "NY") {
			u = *r
		}
	})
	if u.ID == 0 {
		t.Fatal("no user in KS or NY; fixture broken")
	}
	loc, state := "Topeka, KS", "KS"
	if u.StateCode == "KS" {
		loc, state = "Buffalo, NY", "NY"
	}
	shard := pipeline.NewDataset()
	tw := twitter.Tweet{
		ID:        tweetID,
		Text:      "register as an organ donor, one kidney saves a life",
		CreatedAt: time.Unix(0, u.FirstSeen).Add(-time.Hour),
		User:      twitter.User{ID: u.ID, Location: loc},
	}
	if shard.Process(tw) != pipeline.CollectedUS {
		t.Fatal("state-switch tweet not collected")
	}
	return shard, u.ID, state
}

func floatsIdentical(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// compareAnalyses asserts two analyses are bit-identical: every float
// through Float64bits, everything else through DeepEqual.
func compareAnalyses(t *testing.T, got, want *Analysis) {
	t.Helper()
	compareAttention(t, got, want)
	compareFigures(t, got, want)
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatal("user clusters differ")
	}
}

// compareAttention asserts two analyses hold the same users with
// bit-identical Û rows. A warm engine keeps Û in its own row order, so
// rows are matched by user id.
func compareAttention(t *testing.T, got, want *Analysis) {
	t.Helper()
	ga, wa := got.Attention, want.Attention
	if ga.Users() != wa.Users() {
		t.Fatalf("attention holds %d users, want %d", ga.Users(), wa.Users())
	}
	for w, id := range wa.UserIDs() {
		g := ga.RowOf(id)
		if g < 0 || ga.UserIDs()[g] != id {
			t.Fatalf("attention lost user %d", id)
		}
		floatsIdentical(t, "attention row", ga.Matrix().RowView(g), wa.Matrix().RowView(w))
	}
}

// compareFigures asserts every artifact of two analyses but Û and the
// Figure 7 clustering is bit-identical.
func compareFigures(t *testing.T, got, want *Analysis) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("Table I differs:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if got.Popularity != want.Popularity || got.MultiTweets != want.MultiTweets || got.MultiUsers != want.MultiUsers {
		t.Fatal("figure 2 histograms differ")
	}
	if got.Spearman != want.Spearman {
		t.Fatalf("Spearman %+v want %+v", got.Spearman, want.Spearman)
	}
	floatsIdentical(t, "organ K", got.Organs.K.Data(), want.Organs.K.Data())
	if !reflect.DeepEqual(got.Organs.GroupSizes, want.Organs.GroupSizes) {
		t.Fatal("organ group sizes differ")
	}
	floatsIdentical(t, "region K", got.Regions.K.Data(), want.Regions.K.Data())
	if !reflect.DeepEqual(got.Regions.GroupSizes, want.Regions.GroupSizes) ||
		!reflect.DeepEqual(got.Regions.EmptyStates, want.Regions.EmptyStates) {
		t.Fatal("region group sizes / empty states differ")
	}
	if !reflect.DeepEqual(got.Highlight, want.Highlight) {
		t.Fatal("figure 5 differs")
	}
	if !reflect.DeepEqual(got.Baseline, want.Baseline) {
		t.Fatal("winner-takes-all baseline differs")
	}
	if !reflect.DeepEqual(got.StateCodes, want.StateCodes) {
		t.Fatal("state codes differ")
	}
	if len(got.StateDist) != len(want.StateDist) {
		t.Fatalf("state distance matrix %d rows want %d", len(got.StateDist), len(want.StateDist))
	}
	for i := range want.StateDist {
		floatsIdentical(t, "state distances", got.StateDist[i], want.StateDist[i])
	}
	if !reflect.DeepEqual(got.Dendrogram, want.Dendrogram) {
		t.Fatal("dendrogram differs")
	}
	if !reflect.DeepEqual(got.Sweep, want.Sweep) {
		t.Fatal("sweep differs")
	}
}

// clustersByID maps every user of a to its Figure 7 cluster. Two
// engines can hold Û in different row orders, so their partitions are
// compared by user id.
func clustersByID(a *Analysis) map[int64]int {
	out := make(map[int64]int, a.Attention.Users())
	for r, id := range a.Attention.UserIDs() {
		out[id] = a.Clusters.Labels[r]
	}
	return out
}

// converged asserts Figure 7 of a is a converged clustering of its Û:
// every row labeled with its nearest centroid, sizes that count the
// labels, and an inertia within 1e-9 relative of the rows' summed
// squared distances to their centroids.
func converged(t *testing.T, what string, a *Analysis) {
	t.Helper()
	u, res := a.Attention.Matrix(), a.Clusters
	if res == nil || len(res.Labels) != u.Rows() || len(res.Sizes) != res.K {
		t.Fatalf("%s: clustering does not cover the %d rows", what, u.Rows())
	}
	sizes := make([]int, res.K)
	inertia := 0.0
	for r, l := range res.Labels {
		row := u.RowView(r)
		dist := func(c int) float64 {
			s := 0.0
			for j, v := range row {
				d := v - res.Centroids[c][j]
				s += d * d
			}
			return s
		}
		best := dist(0)
		for c := 1; c < res.K; c++ {
			best = math.Min(best, dist(c))
		}
		if dist(l) > best+1e-12 {
			t.Fatalf("%s: row %d labeled %d at %g, nearest centroid at %g", what, r, l, dist(l), best)
		}
		sizes[l]++
		inertia += dist(l)
	}
	if !reflect.DeepEqual(sizes, res.Sizes) {
		t.Fatalf("%s: sizes %v, labels count %v", what, res.Sizes, sizes)
	}
	if rel := math.Abs(res.Inertia-inertia) / inertia; rel > 1e-9 {
		t.Fatalf("%s: inertia %v, rows sum to %v (relative %g)", what, res.Inertia, inertia, rel)
	}
}

// TestEngineDifferential drives a corpus through the pipeline in phases —
// growth, returning users whose new tweets move them to another organ
// group, a dataset merge that moves a user to another state, more
// growth, and a refresh with nothing changed — and after
// every phase asserts that Analyze is bit-identical to the naive
// reference of reference_test.go, and that the warm Engine.Refresh is
// bit-identical to Analyze in everything but Figure 7. Its clustering
// resumes from the previous refresh instead of restarting, so it may
// settle in another local optimum than Analyze's cold run: it must be
// converged, and a refresh with nothing changed must reproduce it.
func TestEngineDifferential(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.05))
	tweets := corpus.Tweets
	if len(tweets) < 1000 {
		t.Fatalf("corpus too small: %d tweets", len(tweets))
	}
	cfg := engineTestConfig()

	d := pipeline.NewDataset()
	e := NewEngine(d, cfg)
	if !d.DeltaTracking() {
		t.Fatal("NewEngine did not enable delta tracking")
	}

	// Hold out a slice to arrive via Merge (the associative path).
	held := tweets[len(tweets)*9/10:]
	main := tweets[: len(tweets)*9/10 : len(tweets)*9/10]

	checkpointEpochs := []uint64{}
	check := func() *Analysis {
		t.Helper()
		// Analyze first: it must leave the engine's delta for Refresh.
		want, err := Analyze(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkReference(t, want, d, cfg)
		got, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		compareAttention(t, got, want)
		compareFigures(t, got, want)
		converged(t, "warm clustering", got)
		checkpointEpochs = append(checkpointEpochs, e.Epoch())
		return got
	}

	// Phase 1: cold build over the first third.
	third := len(main) / 3
	for _, tw := range main[:third] {
		d.Process(tw)
	}
	check()
	if e.Epoch() != 0 {
		t.Fatalf("cold build at epoch %d", e.Epoch())
	}

	// Phase 2: growth — new users appear, old users tweet again.
	for _, tw := range main[third : 2*third] {
		d.Process(tw)
	}
	check()
	if e.Epoch() == 0 {
		t.Fatal("incremental refresh did not advance the epoch")
	}

	// Phase 3: returning users change their primary organ, so each
	// leaves its Figure 3 group for another.
	moved := moveOrganGroups(t, d, 40, 1<<60)
	checkOrganGroups(t, check(), moved)

	// Phase 4: merge a separately-collected shard, and one whose earlier
	// tweet moves a user to another state.
	d2 := pipeline.NewDataset()
	for _, tw := range held {
		d2.Process(tw)
	}
	d.Merge(d2)
	shard, switched, state := stateSwitchShard(t, d, 1<<61)
	d.Merge(shard)
	if u, _ := d.LookupUser(switched); u.StateCode != state {
		t.Fatalf("merge left user %d in %s, want %s", switched, u.StateCode, state)
	}
	check()

	// Phase 5: more growth after the merge.
	for _, tw := range main[2*third:] {
		d.Process(tw)
	}
	grown := check()

	// Phase 6: nothing changed — the refresh must still match, and the
	// warm clustering is a fixed point of its own previous state.
	// The next refresh reuses the labels' memory: copy them first.
	prevLabels, prevInertia := append([]int(nil), grown.Clusters.Labels...), grown.Clusters.Inertia
	again := check()
	if !reflect.DeepEqual(again.Clusters.Labels, prevLabels) {
		t.Fatal("unchanged-data warm refresh moved the partition")
	}
	if rel := math.Abs(again.Clusters.Inertia-prevInertia) / prevInertia; rel > 1e-9 {
		t.Fatalf("unchanged-data warm refresh drifted inertia by %g", rel)
	}

	for i := 1; i < len(checkpointEpochs); i++ {
		if checkpointEpochs[i] < checkpointEpochs[i-1] {
			t.Fatalf("epoch moved backwards: %v", checkpointEpochs)
		}
	}
}

// TestEngineWarmEquivalence refreshes an engine over a growing stream
// and compares it with Analyze: every non-clustering artifact must be
// bit-identical, and the warm clustering must behave as a converged
// fixed point — an unchanged-data refresh reproduces it exactly,
// including through a MarshalWarm/RestoreWarm checkpoint round-trip.
func TestEngineWarmEquivalence(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.05))
	tweets := corpus.Tweets
	cfg := engineTestConfig()

	dWarm := pipeline.NewDataset()
	eWarm := NewEngine(dWarm, cfg)
	half := len(tweets) / 2
	for _, tw := range tweets[:half] {
		dWarm.Process(tw)
	}
	if _, err := eWarm.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, tw := range tweets[half:] {
		dWarm.Process(tw)
	}
	aWarm, err := eWarm.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	aCold, err := Analyze(dWarm, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Everything except the K-Means result is float-path independent of
	// the warm resume.
	compareAttention(t, aWarm, aCold)
	if !reflect.DeepEqual(aWarm.Highlight, aCold.Highlight) {
		t.Fatal("figure 5 differs under warm clustering")
	}
	if !reflect.DeepEqual(aWarm.Dendrogram, aCold.Dendrogram) {
		t.Fatal("dendrogram differs under warm clustering")
	}

	// The warm clustering is a converged partition of the same data:
	// sizes account for every user, and an unchanged-data refresh is a
	// fixed point.
	if aWarm.Clusters == nil || aCold.Clusters == nil {
		t.Fatal("missing clusters")
	}
	total := 0
	for _, s := range aWarm.Clusters.Sizes {
		total += s
	}
	if total != aWarm.Attention.Users() {
		t.Fatalf("warm cluster sizes cover %d of %d users", total, aWarm.Attention.Users())
	}
	again, err := eWarm.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	// Converged-equal, not bit-identical: the resume's convergence check
	// drifts centroids by sub-tolerance ulps (exactly like the cold
	// path's last iteration), so the contract is same partition at
	// indistinguishable inertia.
	if !reflect.DeepEqual(again.Clusters.Labels, aWarm.Clusters.Labels) ||
		!reflect.DeepEqual(again.Clusters.Sizes, aWarm.Clusters.Sizes) {
		t.Fatal("unchanged-data warm refresh moved the partition")
	}
	if rel := math.Abs(again.Clusters.Inertia-aWarm.Clusters.Inertia) / aWarm.Clusters.Inertia; rel > 1e-9 {
		t.Fatalf("unchanged-data warm refresh drifted inertia by %g", rel)
	}

	// Checkpoint round-trip: a fresh engine restored from the warm blob
	// resumes instead of re-searching — on unchanged data it converges
	// immediately to the same partition.
	blob, err := eWarm.MarshalWarm()
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty warm blob after clustering")
	}
	eRestored := NewEngine(dWarm, cfg)
	if err := eRestored.RestoreWarm(blob); err != nil {
		t.Fatal(err)
	}
	aRestored, err := eRestored.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if aRestored.Clusters.Iterations > 2 {
		t.Fatalf("restored warm resume took %d iterations", aRestored.Clusters.Iterations)
	}
	if !reflect.DeepEqual(clustersByID(aRestored), clustersByID(aWarm)) {
		t.Fatal("restored warm resume changed the partition")
	}
	// Garbage blobs are rejected; nil blobs are ignored.
	if err := eRestored.RestoreWarm([]byte("not gob")); err == nil {
		t.Fatal("garbage warm blob accepted")
	}
	if err := eRestored.RestoreWarm(nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineErrorResets drives the engine into an error (a refresh
// before any user arrives) and asserts it recovers with a cold rebuild,
// bit-identical to Analyze, once data arrives.
func TestEngineErrorResets(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	tweets := corpus.Tweets
	cfg := engineTestConfig()
	cfg.KUsers = 4

	d := pipeline.NewDataset()
	e := NewEngine(d, cfg)
	if _, err := e.Refresh(); err == nil {
		t.Fatal("refresh of an empty dataset succeeded")
	}

	for _, tw := range tweets[:len(tweets)/10] {
		d.Process(tw)
	}
	got, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareAnalyses(t, got, want)
	if e.Epoch() != 0 {
		t.Fatalf("recovery was not a cold rebuild (epoch %d)", e.Epoch())
	}
}

// TestEngineWarmLabelsStayAligned drives a warm engine through growth,
// users whose new tweets move them to another organ group, and a merge —
// every refresh growing Û and the K-Means state — and asserts after each
// refresh that every served label is its own Û row's nearest centroid
// and matches the carried state. A changed row whose label was not
// invalidated would keep a stale cluster and fail the check.
func TestEngineWarmLabelsStayAligned(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.05))
	tweets := corpus.Tweets
	cfg := engineTestConfig()
	d := pipeline.NewDataset()
	e := NewEngine(d, cfg)

	check := func(phase string) {
		t.Helper()
		a, err := e.Refresh()
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		u := a.Attention.Matrix()
		res := a.Clusters
		if len(res.Labels) != u.Rows() || len(e.kmWarm.Labels) != u.Rows() {
			t.Fatalf("%s: %d labels, %d carried, %d rows", phase, len(res.Labels), len(e.kmWarm.Labels), u.Rows())
		}
		for r := 0; r < u.Rows(); r++ {
			row := u.RowView(r)
			dist := func(c int) float64 {
				s := 0.0
				for j, v := range row {
					d := v - res.Centroids[c][j]
					s += d * d
				}
				return s
			}
			best := dist(0)
			for c := 1; c < res.K; c++ {
				best = math.Min(best, dist(c))
			}
			if l := res.Labels[r]; dist(l) > best+1e-12 || int(e.kmWarm.Labels[r]) != l {
				t.Fatalf("%s: row %d (user %d) labeled %d at %g, nearest at %g, carried %d",
					phase, r, a.Attention.UserIDs()[r], l, dist(l), best, e.kmWarm.Labels[r])
			}
		}
	}

	third := len(tweets) / 3
	for _, tw := range tweets[:third] {
		d.Process(tw)
	}
	check("cold")
	for i, tw := range tweets[third : 2*third] {
		d.Process(tw)
		if i%500 == 499 {
			check("growth")
		}
	}
	for i := 0; i < 4; i++ {
		moveOrganGroups(t, d, 150, 1<<60+int64(i)<<40)
		check("group moves")
	}
	d2 := pipeline.NewDataset()
	for _, tw := range tweets[2*third:] {
		d2.Process(tw)
	}
	d.Merge(d2)
	check("merge")
}
