package gen

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// testCorpus generates a small but statistically meaningful corpus once.
var testCorpus = Generate(DefaultConfig(0.02))

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig(0.005))
	b := Generate(DefaultConfig(0.005))
	if len(a.Tweets) != len(b.Tweets) {
		t.Fatalf("tweet counts differ: %d vs %d", len(a.Tweets), len(b.Tweets))
	}
	for i := range a.Tweets {
		if a.Tweets[i].Text != b.Tweets[i].Text || a.Tweets[i].User.ID != b.Tweets[i].User.ID ||
			!a.Tweets[i].CreatedAt.Equal(b.Tweets[i].CreatedAt) {
			t.Fatalf("tweet %d differs between identical seeds", i)
		}
	}
	c := DefaultConfig(0.005)
	c.Seed = 99
	other := Generate(c)
	if len(other.Tweets) == len(a.Tweets) {
		same := true
		for i := range a.Tweets {
			if a.Tweets[i].Text != other.Tweets[i].Text {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical corpus")
		}
	}
}

func TestTweetsChronologicalWithIncreasingIDs(t *testing.T) {
	tw := testCorpus.Tweets
	for i := 1; i < len(tw); i++ {
		if tw[i].CreatedAt.Before(tw[i-1].CreatedAt) {
			t.Fatalf("tweets out of order at %d", i)
		}
		if tw[i].ID <= tw[i-1].ID {
			t.Fatalf("IDs not strictly increasing at %d", i)
		}
	}
}

func TestTweetsWithinWindow(t *testing.T) {
	cfg := testCorpus.Config
	end := testCorpus.End()
	for _, tw := range testCorpus.Tweets {
		if tw.CreatedAt.Before(cfg.Start) || !tw.CreatedAt.Before(end) {
			t.Fatalf("tweet at %v outside window [%v, %v)", tw.CreatedAt, cfg.Start, end)
		}
	}
}

func TestInContextTweetsPassFilterAndNoiseDoesNot(t *testing.T) {
	ex := text.NewExtractor()
	filter := twitter.NewTrackFilter(organ.TrackTerms())
	inCtx, noise := 0, 0
	for _, tw := range testCorpus.Tweets {
		p := testCorpus.Profiles[tw.User.ID]
		if p.TweetCount > 0 {
			inCtx++
			if !ex.Extract(tw.Text).InContext() {
				t.Fatalf("in-context tweet fails extractor: %q", tw.Text)
			}
			if !filter.Matches(tw.Text) {
				t.Fatalf("in-context tweet fails track filter: %q", tw.Text)
			}
		} else {
			noise++
			if ex.Extract(tw.Text).InContext() {
				t.Fatalf("noise tweet passes filter: %q", tw.Text)
			}
		}
	}
	if noise == 0 || inCtx == 0 {
		t.Fatalf("degenerate corpus: %d in-context, %d noise", inCtx, noise)
	}
	gotRate := float64(noise) / float64(inCtx)
	if math.Abs(gotRate-testCorpus.Config.NoiseRate) > 0.01 {
		t.Errorf("noise rate = %.3f, want ≈%.3f", gotRate, testCorpus.Config.NoiseRate)
	}
}

func TestActivityMeanMatchesPaper(t *testing.T) {
	// Paper Table I: 1.88 tweets per user. The raw truncated power law
	// sits a bit lower (≈1.78); the role activity multipliers (with the
	// ≥1 floor) lift the realized mean to ≈1.88.
	s := newActivitySampler(2.58, 2000)
	if m := s.Mean(); m < 1.65 || m > 1.90 {
		t.Errorf("raw activity mean = %.3f, want ≈1.78", m)
	}
	// And the empirical corpus mean, too.
	counts := map[int64]int{}
	for _, tw := range testCorpus.Tweets {
		if testCorpus.Profiles[tw.User.ID].TweetCount > 0 {
			counts[tw.User.ID]++
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	mean := float64(total) / float64(len(counts))
	if math.Abs(mean-1.88) > 0.15 {
		t.Errorf("empirical tweets/user = %.3f, want ≈1.88", mean)
	}
}

func TestGeoTagRate(t *testing.T) {
	tagged, total := 0, 0
	for _, tw := range testCorpus.Tweets {
		if testCorpus.Profiles[tw.User.ID].TweetCount == 0 {
			continue
		}
		total++
		if tw.HasCoordinates {
			tagged++
		}
	}
	rate := float64(tagged) / float64(total)
	if math.Abs(rate-0.014) > 0.006 {
		t.Errorf("geo-tag rate = %.4f, want ≈0.014", rate)
	}
}

func TestUSGeoTagsReverseGeocodeToTrueState(t *testing.T) {
	g := geo.NewGeocoder()
	checked, wrong := 0, 0
	for _, tw := range testCorpus.Tweets {
		if !tw.HasCoordinates {
			continue
		}
		p := testCorpus.Profiles[tw.User.ID]
		loc, ok := g.Reverse(tw.Coordinates.Lat, tw.Coordinates.Lon)
		if !p.US {
			if ok {
				t.Errorf("foreign geo-tag (%v,%v) resolved to %s", tw.Coordinates.Lat, tw.Coordinates.Lon, loc.StateCode)
			}
			continue
		}
		checked++
		if !ok || loc.StateCode != p.StateCode {
			wrong++
		}
	}
	if checked == 0 {
		t.Fatal("no US geo-tags generated")
	}
	if frac := float64(wrong) / float64(checked); frac > 0.05 {
		t.Errorf("%.1f%% of US geo-tags reverse-geocode wrongly", frac*100)
	}
}

func TestUSLocationsGeocodeToTrueState(t *testing.T) {
	g := geo.NewGeocoder()
	checked, wrong := 0, 0
	for _, p := range testCorpus.Profiles {
		if !p.US || p.TweetCount == 0 {
			continue
		}
		loc := g.Locate(p.Location)
		if !loc.IsUSState() {
			continue // junk-location users legitimately drop out
		}
		checked++
		if loc.StateCode != p.StateCode {
			wrong++
			t.Logf("location %q geocoded to %s, truth %s", p.Location, loc.StateCode, p.StateCode)
		}
	}
	if checked == 0 {
		t.Fatal("no locatable US users")
	}
	if frac := float64(wrong) / float64(checked); frac > 0.02 {
		t.Errorf("%.2f%% of parseable US locations resolve to the wrong state", frac*100)
	}
	// And the share of US users that geocode at all must match the
	// intended survival rate (~96.5%).
	usTotal := 0
	for _, p := range testCorpus.Profiles {
		if p.US && p.TweetCount > 0 {
			usTotal++
		}
	}
	survival := float64(checked) / float64(usTotal)
	if survival < 0.93 || survival > 0.99 {
		t.Errorf("US location survival = %.3f, want ≈0.965", survival)
	}
}

func TestForeignLocationsDoNotResolveToUS(t *testing.T) {
	g := geo.NewGeocoder()
	resolved := 0
	total := 0
	for _, p := range testCorpus.Profiles {
		if p.US || p.TweetCount == 0 {
			continue
		}
		total++
		if g.Locate(p.Location).IsUSState() {
			resolved++
			t.Logf("foreign location %q resolved to a US state", p.Location)
		}
	}
	if total == 0 {
		t.Fatal("no non-US users")
	}
	if resolved > 0 {
		t.Errorf("%d/%d foreign locations leak into the US dataset", resolved, total)
	}
}

func TestOrganPopularityOrder(t *testing.T) {
	// Count distinct users mentioning each organ (Figure 2a) over true
	// in-context tweets.
	ex := text.NewExtractor()
	usersByOrgan := make([]map[int64]bool, organ.Count)
	for i := range usersByOrgan {
		usersByOrgan[i] = map[int64]bool{}
	}
	for _, tw := range testCorpus.Tweets {
		if testCorpus.Profiles[tw.User.ID].TweetCount == 0 {
			continue
		}
		for _, o := range ex.Extract(tw.Text).Organs() {
			usersByOrgan[o.Index()][tw.User.ID] = true
		}
	}
	counts := make([]float64, organ.Count)
	for i, m := range usersByOrgan {
		counts[i] = float64(len(m))
	}
	// Heart most popular, intestine least (Figure 2a).
	order := []organ.Organ{organ.Heart, organ.Kidney, organ.Liver, organ.Lung, organ.Pancreas, organ.Intestine}
	for i := 1; i < len(order); i++ {
		if counts[order[i].Index()] >= counts[order[i-1].Index()] {
			t.Errorf("popularity order broken: %v (%v) >= %v (%v)",
				order[i], counts[order[i].Index()], order[i-1], counts[order[i-1].Index()])
		}
	}
}

func TestOrgansPerTweetCalibration(t *testing.T) {
	ex := text.NewExtractor()
	tweets, organsTotal := 0, 0
	for _, tw := range testCorpus.Tweets {
		if testCorpus.Profiles[tw.User.ID].TweetCount == 0 {
			continue
		}
		tweets++
		organsTotal += len(ex.Extract(tw.Text).Organs())
	}
	avg := float64(organsTotal) / float64(tweets)
	if math.Abs(avg-1.03) > 0.02 {
		t.Errorf("organs/tweet = %.3f, want ≈1.03", avg)
	}
}

func TestOrgansPerUserCalibration(t *testing.T) {
	ex := text.NewExtractor()
	perUser := map[int64]map[organ.Organ]bool{}
	for _, tw := range testCorpus.Tweets {
		if testCorpus.Profiles[tw.User.ID].TweetCount == 0 {
			continue
		}
		m := perUser[tw.User.ID]
		if m == nil {
			m = map[organ.Organ]bool{}
			perUser[tw.User.ID] = m
		}
		for _, o := range ex.Extract(tw.Text).Organs() {
			m[o] = true
		}
	}
	total := 0
	for _, m := range perUser {
		total += len(m)
	}
	avg := float64(total) / float64(len(perUser))
	if math.Abs(avg-1.13) > 0.06 {
		t.Errorf("organs/user = %.3f, want ≈1.13", avg)
	}
}

func TestUSShareOfTweets(t *testing.T) {
	// Paper: 134,986 of 975,021 collected tweets identified as US ≈ 13.8%.
	us, total := 0, 0
	for _, tw := range testCorpus.Tweets {
		p := testCorpus.Profiles[tw.User.ID]
		if p.TweetCount == 0 {
			continue
		}
		total++
		if p.US {
			us++
		}
	}
	share := float64(us) / float64(total)
	if math.Abs(share-0.138) > 0.02 {
		t.Errorf("US tweet share = %.3f, want ≈0.138", share)
	}
}

func TestKansasKidneyAnomalyPresent(t *testing.T) {
	// The per-state organ sampler must elevate kidney in Kansas well
	// above the base rate (Figure 5's anomaly); small corpora are too
	// noisy, so sample the generator's organ model directly.
	r := rand.New(rand.NewPCG(11, 11))
	const n = 50000
	ksKidney, neutralKidney := 0, 0
	for i := 0; i < n; i++ {
		if primaryOrgan(r, "KS") == organ.Kidney {
			ksKidney++
		}
		if primaryOrgan(r, "TX") == organ.Kidney { // TX has no boosts
			neutralKidney++
		}
	}
	ksRate := float64(ksKidney) / n
	baseRate := float64(neutralKidney) / n
	// Boost 1.28 with renormalization gives ≈1.19x; heart must stay the
	// raw winner (paper Figure 4), so the effect is deliberately subtle.
	if ksRate < baseRate*1.12 {
		t.Errorf("Kansas kidney rate %.3f not elevated vs base %.3f", ksRate, baseRate)
	}
	// No other Midwestern state gets a kidney boost (Kansas is the only
	// one in the paper).
	for code, boosts := range stateOrganBoost {
		if code == "KS" {
			continue
		}
		st, ok := geo.StateByCode(code)
		if !ok {
			t.Fatalf("boost for unknown state %s", code)
		}
		if st.Region == geo.Midwest {
			if _, hasKidney := boosts[organ.Kidney]; hasKidney {
				t.Errorf("state %s in the Midwest has a kidney boost; only Kansas may", code)
			}
		}
	}
}

func TestMidwestUnderrepresented(t *testing.T) {
	// Twitter bias: Midwest share among users must be below its
	// population share.
	popByRegion := map[geo.Region]float64{}
	popTotal := 0.0
	for _, s := range geo.States() {
		popByRegion[s.Region] += float64(s.Population)
		popTotal += float64(s.Population)
	}
	userByRegion := map[geo.Region]float64{}
	userTotal := 0.0
	for _, p := range testCorpus.Profiles {
		if !p.US || p.TweetCount == 0 {
			continue
		}
		st, _ := geo.StateByCode(p.StateCode)
		userByRegion[st.Region]++
		userTotal++
	}
	midwestPop := popByRegion[geo.Midwest] / popTotal
	midwestUsers := userByRegion[geo.Midwest] / userTotal
	if midwestUsers >= midwestPop {
		t.Errorf("Midwest user share %.3f not below population share %.3f", midwestUsers, midwestPop)
	}
}

func TestActivitySamplerDistribution(t *testing.T) {
	s := newActivitySampler(2.58, 100)
	r := rand.New(rand.NewPCG(7, 7))
	counts := map[int]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		k := s.sample(r)
		if k < 1 || k > 100 {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	// Monotone decreasing head.
	if !(counts[1] > counts[2] && counts[2] > counts[3]) {
		t.Errorf("power law head not decreasing: %d, %d, %d", counts[1], counts[2], counts[3])
	}
	// P(1) ≈ 1/ζ(2.58) ≈ 0.77.
	p1 := float64(counts[1]) / n
	if math.Abs(p1-0.77) > 0.03 {
		t.Errorf("P(k=1) = %.3f, want ≈0.77", p1)
	}
}

func TestProfilesConsistent(t *testing.T) {
	for id, p := range testCorpus.Profiles {
		if p.UserID != id {
			t.Fatalf("profile key %d holds user %d", id, p.UserID)
		}
		if p.US {
			if _, ok := geo.StateByCode(p.StateCode); !ok {
				t.Errorf("US user %d has invalid state %q", id, p.StateCode)
			}
			if p.City.StateCode != p.StateCode {
				t.Errorf("user %d city %s in %s, state %s", id, p.City.Name, p.City.StateCode, p.StateCode)
			}
		}
		if p.HasSecondary && p.Secondary == p.Primary {
			t.Errorf("user %d secondary equals primary", id)
		}
		if !p.Primary.Valid() {
			t.Errorf("user %d has invalid primary", id)
		}
	}
}

func TestCorpusScalesLinearly(t *testing.T) {
	small := Generate(DefaultConfig(0.005))
	big := Generate(DefaultConfig(0.01))
	ratio := float64(len(big.Tweets)) / float64(len(small.Tweets))
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("2x scale produced %.2fx tweets", ratio)
	}
}

func TestStatePickerCoversAllStates(t *testing.T) {
	sp := newStatePicker()
	r := rand.New(rand.NewPCG(3, 3))
	seen := map[string]bool{}
	for i := 0; i < 200000; i++ {
		seen[sp.pick(r).Code] = true
	}
	for _, s := range geo.States() {
		if !seen[s.Code] {
			t.Errorf("state %s never sampled", s.Code)
		}
	}
}

func TestDiurnalPattern(t *testing.T) {
	byHour := make([]int, 24)
	for _, tw := range testCorpus.Tweets {
		byHour[tw.CreatedAt.Hour()]++
	}
	// Evening (19h) must beat pre-dawn (3h) decisively.
	if byHour[19] < byHour[3]*3 {
		t.Errorf("diurnal pattern flat: 19h=%d vs 3h=%d", byHour[19], byHour[3])
	}
}

func TestScreenNamesPlausible(t *testing.T) {
	ids := make([]int64, 0, len(testCorpus.Profiles))
	for id := range testCorpus.Profiles {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids[:10] {
		name := testCorpus.Profiles[id].ScreenName
		if name == "" || len(name) > 30 {
			t.Errorf("bad screen name %q", name)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(cfg)
	}
}
