package pipeline

import (
	"context"
	"math"
	"sort"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/stats"
	"donorsense/internal/twitter"
)

var (
	sharedDataset *Dataset
	sharedCorpus  *gen.Corpus
)

func TestMain(m *testing.M) {
	sharedCorpus = gen.Generate(gen.DefaultConfig(0.02))
	sharedDataset = NewDataset()
	for _, tw := range sharedCorpus.Tweets {
		sharedDataset.Process(tw)
	}
	m.Run()
}

// stateMap returns every retained user's state code by user id.
func stateMap(d *Dataset) map[int64]string {
	out := make(map[int64]string, d.Users())
	d.EachUser(func(u *UserRecord) { out[u.ID] = u.StateCode })
	return out
}

func TestProcessOutcomes(t *testing.T) {
	d := NewDataset()
	us := twitter.Tweet{
		Text:      "register as an organ donor, one kidney saves a life",
		CreatedAt: time.Now(),
		User:      twitter.User{ID: 1, Location: "Wichita, KS"},
	}
	if got := d.Process(us); got != CollectedUS {
		t.Errorf("US tweet outcome = %v", got)
	}
	foreign := us
	foreign.User = twitter.User{ID: 2, Location: "London"}
	if got := d.Process(foreign); got != CollectedNonUS {
		t.Errorf("foreign tweet outcome = %v", got)
	}
	junk := us
	junk.User = twitter.User{ID: 3, Location: "in my head"}
	if got := d.Process(junk); got != CollectedNonUS {
		t.Errorf("unlocatable tweet outcome = %v", got)
	}
	offTopic := us
	offTopic.Text = "kidney beans for dinner"
	if got := d.Process(offTopic); got != Rejected {
		t.Errorf("off-topic tweet outcome = %v", got)
	}
	if d.Users() != 1 || d.USTweets() != 1 || d.TotalCollected() != 3 {
		t.Errorf("counts: users=%d us=%d total=%d", d.Users(), d.USTweets(), d.TotalCollected())
	}
}

func TestGeoTagBeatsProfile(t *testing.T) {
	d := NewDataset()
	tw := twitter.Tweet{
		Text:      "heart transplant waiting list keeps growing — donate",
		CreatedAt: time.Now(),
		User:      twitter.User{ID: 1, Location: "London"}, // profile says UK
	}
	// ... but the geo-tag is in Topeka.
	tw.SetCoordinates(39.0, -95.7)
	if got := d.Process(tw); got != CollectedUS {
		t.Fatalf("geo-tagged tweet outcome = %v", got)
	}
	if got := stateMap(d)[1]; got != "KS" {
		t.Errorf("state = %s, want KS", got)
	}
	if d.GeoTagged() != 1 {
		t.Error("geo-tag not counted")
	}

	// And a foreign geo-tag excludes even with a US profile.
	tw2 := tw
	tw2.User = twitter.User{ID: 2, Location: "Boston, MA"}
	tw2.SetCoordinates(51.5, -0.1) // London
	if got := d.Process(tw2); got != CollectedNonUS {
		t.Errorf("foreign geo-tag outcome = %v", got)
	}
}

func TestOutcomeString(t *testing.T) {
	for _, o := range []Outcome{Rejected, CollectedNonUS, CollectedUS} {
		if o.String() == "outcome(?)" {
			t.Errorf("outcome %d unnamed", int(o))
		}
	}
}

func TestTableIShape(t *testing.T) {
	s := sharedDataset.Stats()
	cfg := sharedCorpus.Config

	// Window ≈ 385 days.
	if s.Days < cfg.Days-3 || s.Days > cfg.Days+1 {
		t.Errorf("Days = %d, want ≈%d", s.Days, cfg.Days)
	}
	// US users ≈ 71,947 × scale.
	wantUsers := 71947.0 * cfg.Scale
	if math.Abs(float64(s.Users)-wantUsers)/wantUsers > 0.05 {
		t.Errorf("Users = %d, want ≈%.0f ±5%%", s.Users, wantUsers)
	}
	// US tweets ≈ 134,986 × scale.
	wantTweets := 134986.0 * cfg.Scale
	if math.Abs(float64(s.TweetsCollected)-wantTweets)/wantTweets > 0.08 {
		t.Errorf("TweetsCollected = %d, want ≈%.0f ±8%%", s.TweetsCollected, wantTweets)
	}
	// Total collected ≈ 975,021 × scale (plus noise tweets are rejected,
	// not collected).
	wantTotal := 975021.0 * cfg.Scale
	if math.Abs(float64(s.TotalCollected)-wantTotal)/wantTotal > 0.08 {
		t.Errorf("TotalCollected = %d, want ≈%.0f ±8%%", s.TotalCollected, wantTotal)
	}
	// Ratios.
	if math.Abs(s.AvgTweetsPerUser-1.88) > 0.15 {
		t.Errorf("AvgTweetsPerUser = %.3f, want ≈1.88", s.AvgTweetsPerUser)
	}
	if math.Abs(s.OrgansPerTweet-1.03) > 0.02 {
		t.Errorf("OrgansPerTweet = %.3f, want ≈1.03", s.OrgansPerTweet)
	}
	if math.Abs(s.OrgansPerUser-1.13) > 0.06 {
		t.Errorf("OrgansPerUser = %.3f, want ≈1.13", s.OrgansPerUser)
	}
	if math.Abs(s.GeoTagRate-0.014) > 0.008 {
		t.Errorf("GeoTagRate = %.4f, want ≈0.014", s.GeoTagRate)
	}
	// Tweets/day scales with the corpus: 350 × scale.
	wantPerDay := 350.0 * cfg.Scale
	if math.Abs(s.AvgTweetsPerDay-wantPerDay)/wantPerDay > 0.1 {
		t.Errorf("AvgTweetsPerDay = %.2f, want ≈%.2f", s.AvgTweetsPerDay, wantPerDay)
	}
}

// usersPerOrgan counts the distinct users mentioning each organ — Figure
// 2(a), the organ "popularity" histogram — from the user records.
func usersPerOrgan(d *Dataset) [organ.Count]int {
	var out [organ.Count]int
	d.EachUser(func(u *UserRecord) {
		for i, m := range u.Mentions {
			if m > 0 {
				out[i]++
			}
		}
	})
	return out
}

// userOrganHistogram counts the users mentioning exactly k distinct
// organs — Figure 2(b)'s user half; index 0 ⇒ k = 1.
func userOrganHistogram(d *Dataset) [organ.Count]int {
	var out [organ.Count]int
	d.EachUser(func(u *UserRecord) {
		if k := u.DistinctOrgans(); k >= 1 {
			out[k-1]++
		}
	})
	return out
}

func TestFigure2aPopularityOrder(t *testing.T) {
	counts := usersPerOrgan(sharedDataset)
	rank := organ.All()
	sort.SliceStable(rank, func(i, j int) bool {
		return counts[rank[i].Index()] > counts[rank[j].Index()]
	})
	want := []organ.Organ{organ.Heart, organ.Kidney, organ.Liver, organ.Lung, organ.Pancreas, organ.Intestine}
	for i := range want {
		if rank[i] != want[i] {
			t.Fatalf("popularity rank = %v, want %v", rank, want)
		}
	}
	if counts[organ.Intestine.Index()] == 0 {
		t.Error("intestine never mentioned; histogram degenerate")
	}
}

func TestFigure2aSpearmanValidation(t *testing.T) {
	counts := usersPerOrgan(sharedDataset)
	x := make([]float64, organ.Count)
	for i, c := range counts {
		x[i] = float64(c)
	}
	res, err := stats.Spearman(x, organ.TransplantCounts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: r = .84, p < .05. With heart over-ranked (1st on Twitter,
	// 3rd in transplants) and everything else aligned, exact Spearman on
	// n=6 is 1 − 6/35 ≈ 0.829.
	if math.Abs(res.R-0.829) > 0.06 {
		t.Errorf("Spearman r = %.3f, want ≈0.83", res.R)
	}
	if res.P >= 0.05 {
		t.Errorf("Spearman p = %.4f, want < .05", res.P)
	}
}

func TestFigure2bCrossover(t *testing.T) {
	tweets, users := sharedDataset.TweetOrganHistogram(), userOrganHistogram(sharedDataset)
	// Paper: "The number of tweets is greater than the number of users
	// only for single mentions."
	if tweets[0] <= users[0] {
		t.Errorf("k=1: tweets %d <= users %d", tweets[0], users[0])
	}
	for k := 1; k < organ.Count; k++ {
		if tweets[k] > users[k] {
			t.Errorf("k=%d: tweets %d > users %d; crossover broken", k+1, tweets[k], users[k])
		}
	}
	// Users mentioning 2 organs must exist (multi-focus users).
	if users[1] == 0 {
		t.Error("no users mention two organs")
	}
}

func TestBuildAttentionMatchesUsers(t *testing.T) {
	a, states, err := sharedDataset.BuildAttentionStates()
	if err != nil {
		t.Fatal(err)
	}
	if a.Users() != sharedDataset.Users() || len(states) != a.Users() {
		t.Errorf("attention users = %d, state rows = %d, dataset users = %d", a.Users(), len(states), sharedDataset.Users())
	}
	// Every state row is the user's own state.
	byID := stateMap(sharedDataset)
	for r, id := range a.UserIDs() {
		if want := geo.StateIndex(byID[id]); int(states[r]) != want {
			t.Fatalf("row %d (user %d) state %d, want %d", r, id, states[r], want)
		}
	}
	// Every attention row must be a distribution.
	for i := 0; i < a.Users(); i++ {
		sum := 0.0
		for _, v := range a.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestStateAssignmentAccuracy(t *testing.T) {
	states := stateMap(sharedDataset)
	checked, wrong := 0, 0
	for id, code := range states {
		p := sharedCorpus.Profiles[id]
		if !p.US {
			wrong++ // non-US user leaked in
			checked++
			continue
		}
		checked++
		if code != p.StateCode {
			wrong++
		}
	}
	if checked == 0 {
		t.Fatal("no users")
	}
	if frac := float64(wrong) / float64(checked); frac > 0.02 {
		t.Errorf("%.2f%% of state assignments wrong vs ground truth", frac*100)
	}
}

// TestCollectFromChannel: the one ingest loop drains a channel into the
// same dataset a sequential Process oracle builds over the same delivery
// sequence, at every worker count.
func TestCollectFromChannel(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.002))
	want := NewDataset()
	for _, tw := range corpus.Tweets {
		want.Process(tw)
	}
	for _, workers := range []int{1, 2, 4} {
		d := NewDataset()
		if n := d.CollectParallel(context.Background(), feed(corpus.Tweets), CollectOptions{Workers: workers}); n != len(corpus.Tweets) {
			t.Errorf("workers=%d: folded %d, want %d", workers, n, len(corpus.Tweets))
		}
		assertDatasetsIdentical(t, d, want)
	}
}

// TestCollectRespectsContext: cancelling mid-stream ends collection, and
// the dataset equals the Process oracle over exactly the prefix that was
// folded, at every worker count.
func TestCollectRespectsContext(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.002))
	half := len(corpus.Tweets) / 2
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		ch := make(chan twitter.Tweet)
		go func() {
			for i, tw := range corpus.Tweets {
				if i == half {
					cancel()
				}
				select {
				case ch <- tw:
				case <-ctx.Done():
					return
				}
			}
		}()
		d := NewDataset()
		n := d.CollectParallel(ctx, ch, CollectOptions{Workers: workers})
		cancel()
		if n < half || n > len(corpus.Tweets) {
			t.Fatalf("workers=%d: folded %d tweets, want at least the %d sent before cancelling", workers, n, half)
		}
		want := NewDataset()
		for _, tw := range corpus.Tweets[:n] {
			want.Process(tw)
		}
		assertDatasetsIdentical(t, d, want)
	}
}

func TestStatsEmptyDataset(t *testing.T) {
	d := NewDataset()
	s := d.Stats()
	if s.Users != 0 || s.Days != 0 || s.AvgTweetsPerUser != 0 || s.OrgansPerTweet != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestHeavyTweeterDoesNotInflateUsers(t *testing.T) {
	d := NewDataset()
	tw := twitter.Tweet{
		Text:      "donate a kidney",
		CreatedAt: time.Now(),
		User:      twitter.User{ID: 5, Location: "Topeka, KS"},
	}
	for i := 0; i < 500; i++ {
		d.Process(tw)
	}
	if d.Users() != 1 {
		t.Errorf("users = %d, want 1", d.Users())
	}
	if d.USTweets() != 500 {
		t.Errorf("tweets = %d, want 500", d.USTweets())
	}
}

func BenchmarkProcess(b *testing.B) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDataset()
		for _, tw := range corpus.Tweets {
			d.Process(tw)
		}
	}
}
