package pipeline

import (
	"context"
	"math"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
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

func TestFigure2aPopularityOrder(t *testing.T) {
	rank := sharedDataset.PopularityRank()
	want := []organ.Organ{organ.Heart, organ.Kidney, organ.Liver, organ.Lung, organ.Pancreas, organ.Intestine}
	for i := range want {
		if rank[i] != want[i] {
			t.Fatalf("popularity rank = %v, want %v", rank, want)
		}
	}
	counts := sharedDataset.UsersPerOrgan()
	if counts[organ.Intestine.Index()] == 0 {
		t.Error("intestine never mentioned; histogram degenerate")
	}
}

func TestFigure2aSpearmanValidation(t *testing.T) {
	res, err := sharedDataset.PopularityCorrelation()
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
	tweets, users := sharedDataset.MultiOrganHistogram()
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

func TestCollectFromChannel(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.002))
	ch := make(chan twitter.Tweet, 64)
	d := NewDataset()
	done := make(chan int)
	go func() { done <- d.Collect(context.Background(), ch) }()
	for _, tw := range corpus.Tweets {
		ch <- tw
	}
	close(ch)
	n := <-done
	if n != len(corpus.Tweets) {
		t.Errorf("Collect processed %d, want %d", n, len(corpus.Tweets))
	}
	if d.Users() == 0 || d.USTweets() == 0 {
		t.Error("Collect produced empty dataset")
	}
}

func TestCollectRespectsContext(t *testing.T) {
	ch := make(chan twitter.Tweet)
	d := NewDataset()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n := d.Collect(ctx, ch); n != 0 {
		t.Errorf("cancelled Collect processed %d", n)
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

func TestDeleteReversesContribution(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.005))
	// Reference dataset that never sees tweet X.
	var victim twitter.Tweet
	ref := NewDataset()
	full := NewDataset()
	full.TrackDeletions()
	for _, tw := range corpus.Tweets {
		full.Process(tw)
	}
	// Pick a retained tweet from a multi-tweet user to delete.
	counts := map[int64]int{}
	for _, tw := range corpus.Tweets {
		if corpus.Profiles[tw.User.ID].TweetCount > 1 && corpus.Profiles[tw.User.ID].US {
			counts[tw.User.ID]++
		}
	}
	for _, tw := range corpus.Tweets {
		p := corpus.Profiles[tw.User.ID]
		if victim.ID == 0 && p.US && p.TweetCount > 1 && full.DeletionTrackingEnabled() {
			if _, tracked := full.contributions[tw.ID]; tracked {
				victim = tw
				continue // ref never processes the victim
			}
		}
		ref.Process(tw)
	}
	if victim.ID == 0 {
		t.Fatal("no deletable tweet found")
	}
	if !full.Delete(victim.ID) {
		t.Fatal("Delete did not find the retained status")
	}
	// After deletion, the datasets must agree on everything observable.
	if full.USTweets() != ref.USTweets() || full.Users() != ref.Users() {
		t.Fatalf("counts differ after delete: %d/%d vs %d/%d",
			full.USTweets(), full.Users(), ref.USTweets(), ref.Users())
	}
	if full.UsersPerOrgan() != ref.UsersPerOrgan() {
		t.Error("users-per-organ differ after delete")
	}
	ft, fu := full.MultiOrganHistogram()
	rt, ru := ref.MultiOrganHistogram()
	if ft != rt || fu != ru {
		t.Error("multi-organ histograms differ after delete")
	}
	fullStats, refStats := full.Stats(), ref.Stats()
	if fullStats.OrgansPerTweet != refStats.OrgansPerTweet || fullStats.OrgansPerUser != refStats.OrgansPerUser {
		t.Error("ratio statistics differ after delete")
	}
	// Totals differ by exactly the deleted tweet's collection.
	if full.TotalCollected() != ref.TotalCollected() {
		t.Errorf("total collected %d vs %d", full.TotalCollected(), ref.TotalCollected())
	}
}

func TestDeleteLastTweetRemovesUser(t *testing.T) {
	d := NewDataset()
	d.TrackDeletions()
	tw := twitter.Tweet{
		ID:        555,
		Text:      "donate a kidney today",
		CreatedAt: time.Now(),
		User:      twitter.User{ID: 9, Location: "Topeka, KS"},
	}
	if d.Process(tw) != CollectedUS {
		t.Fatal("tweet not collected")
	}
	if !d.Delete(555) {
		t.Fatal("delete failed")
	}
	if d.Users() != 0 || d.USTweets() != 0 {
		t.Errorf("user survived deletion: users=%d tweets=%d", d.Users(), d.USTweets())
	}
	// Unknown and repeated deletes are no-ops.
	if d.Delete(555) || d.Delete(123) {
		t.Error("phantom delete succeeded")
	}
}

func TestDeleteWithoutTrackingIsNoop(t *testing.T) {
	d := NewDataset()
	tw := twitter.Tweet{
		ID:        7,
		Text:      "donate a kidney",
		CreatedAt: time.Now(),
		User:      twitter.User{ID: 1, Location: "Topeka, KS"},
	}
	d.Process(tw)
	if d.Delete(7) {
		t.Error("delete succeeded without tracking")
	}
	if d.USTweets() != 1 {
		t.Error("untracked delete mutated the dataset")
	}
}
