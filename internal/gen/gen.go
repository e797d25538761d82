package gen

import (
	"math/rand/v2"
	"sort"
	"time"

	"donorsense/internal/organ"
	"donorsense/internal/twitter"
)

// Corpus is a generated tweet stream with its ground truth.
type Corpus struct {
	// Tweets is the full firehose in chronological order, including the
	// near-miss noise tweets the collection filter must reject.
	Tweets []twitter.Tweet
	// Profiles is the ground truth per user ID.
	Profiles map[int64]Profile
	// Config echoes the generation parameters.
	Config Config
}

// foreignGeoPoints are coordinates used for the rare geo-tags of non-US
// users; the reverse geocoder must fail on them, excluding the tweet.
var foreignGeoPoints = [][2]float64{
	{51.5, -0.1},   // London
	{45.5, -73.6},  // Montreal (Toronto would fall inside NY's bbox hull)
	{48.9, 2.4},    // Paris
	{-33.9, 151.2}, // Sydney
	{19.4, -99.1},  // Mexico City
	{-23.6, -46.6}, // São Paulo
	{35.7, 139.7},  // Tokyo
	{28.6, 77.2},   // Delhi
}

// hourWeights shapes the diurnal posting pattern (local-ish evening peak).
var hourWeights = []float64{
	1, 0.6, 0.4, 0.3, 0.3, 0.5, // 00–05
	1, 2, 3, 3.5, 3.5, 3.5, // 06–11
	4, 4, 3.5, 3.5, 3.5, 4, // 12–17
	4.5, 5, 5, 4.5, 3.5, 2, // 18–23
}

// Generate synthesizes the full corpus for the configuration. The same
// Config (including Seed) always produces the identical corpus.
func Generate(cfg Config) *Corpus {
	r := rand.New(rand.NewPCG(cfg.Seed, 0xD0A0))
	sp := newStatePicker()
	cp := newCityPicker()
	act := newActivitySampler(cfg.ActivityAlpha, cfg.ActivityMax)
	dp := newDayPicker(cfg.Days, cfg.Events)

	c := &Corpus{Profiles: make(map[int64]Profile, cfg.USUsers+cfg.NonUSUsers), Config: cfg}

	var nextUser int64 = 1000
	newProfile := func(us bool, tweetCount int) *Profile {
		id := nextUser
		nextUser++
		role := sampleRole(r)
		tr := traits[role]
		if tweetCount > 0 {
			tweetCount = int(float64(tweetCount)*tr.activityMult + 0.5)
			if tweetCount < 1 {
				tweetCount = 1
			}
			if tweetCount > cfg.ActivityMax {
				tweetCount = cfg.ActivityMax
			}
		}
		p := Profile{
			UserID:     id,
			ScreenName: screenName(r, id),
			Role:       role,
			US:         us,
			TweetCount: tweetCount,
		}
		if us {
			st := sp.pick(r)
			p.StateCode = st.Code
			p.City = cp.pick(r, st.Code)
			if r.Float64() < cfg.UnparseableLocRate {
				p.Location = junkLocations[r.IntN(len(junkLocations))]
			} else {
				p.Location = usLocationString(r, p.City)
			}
			p.Primary = primaryOrgan(r, st.Code)
		} else {
			p.Location = foreignLocationString(r)
			p.Primary = organ.Organ(pickWeighted(r, basePopularity[:]))
		}
		wantSecondary := r.Float64() < cfg.SecondaryFocusRate
		if tr.forceSecondary {
			wantSecondary = true
		}
		if tr.forbidSecondary {
			wantSecondary = false
		}
		if wantSecondary {
			p.Secondary = secondaryOrgan(r, p.Primary, p.StateCode)
			p.HasSecondary = true
		}
		c.Profiles[id] = p
		return &p
	}

	var tweets []twitter.Tweet
	emit := func(p *Profile, text string, day int, geoTagged bool) {
		t := twitter.Tweet{
			Text:      text,
			CreatedAt: timeAt(r, cfg.Start, day),
			User: twitter.User{
				ID:         p.UserID,
				ScreenName: p.ScreenName,
				Location:   p.Location,
			},
		}
		if geoTagged {
			if p.US {
				t.SetCoordinates(
					p.City.Lat+(r.Float64()-0.5)*0.1,
					p.City.Lon+(r.Float64()-0.5)*0.1,
				)
			} else {
				pt := foreignGeoPoints[r.IntN(len(foreignGeoPoints))]
				t.SetCoordinates(pt[0], pt[1])
			}
		}
		tweets = append(tweets, t)
	}

	emitUserTweets := func(p *Profile) {
		tr := traits[p.Role]
		for i := 0; i < p.TweetCount; i++ {
			o := roleTweetOrgan(r, p, cfg)
			var text string
			if r.Float64() < cfg.MultiOrganTweetRate {
				second := secondaryOrgan(r, o, p.StateCode)
				text = renderDualTweet(r, o, second, tr.clinicalBias)
			} else {
				text = renderTweet(r, o, tr.clinicalBias)
			}
			if r.Float64() < tr.hashtagBias {
				text += " " + campaignHashtags[r.IntN(len(campaignHashtags))]
			}
			emit(p, text, dp.pick(r, o), r.Float64() < cfg.GeoTagRate)
		}
	}

	for i := 0; i < cfg.USUsers; i++ {
		emitUserTweets(newProfile(true, act.sample(r)))
	}
	for i := 0; i < cfg.NonUSUsers; i++ {
		emitUserTweets(newProfile(false, act.sample(r)))
	}

	// Near-miss noise: extra tweets that must NOT pass the filter,
	// attributed to fresh users (TweetCount 0: they contribute nothing in
	// context) so they cannot perturb real profiles.
	noiseCount := int(float64(len(tweets)) * cfg.NoiseRate)
	for i := 0; i < noiseCount; i++ {
		p := newProfile(r.Float64() < 0.14, 0) // mixed US / non-US noise
		emit(p, renderNoise(r), r.IntN(cfg.Days), false)
	}

	// Chronological order with snowflake-style increasing IDs.
	sort.Slice(tweets, func(i, j int) bool { return tweets[i].CreatedAt.Before(tweets[j].CreatedAt) })
	var id int64 = 590000000000000000 // plausible 2015 snowflake magnitude
	for i := range tweets {
		tweets[i].ID = id
		id += int64(1 + r.IntN(1_000_000))
	}
	c.Tweets = tweets
	return c
}

// timeAt places a timestamp on the given day with the diurnal hour
// profile.
func timeAt(r *rand.Rand, start time.Time, day int) time.Time {
	hour := pickWeighted(r, hourWeights)
	return start.AddDate(0, 0, day).
		Add(time.Duration(hour) * time.Hour).
		Add(time.Duration(r.IntN(3600)) * time.Second)
}

// End returns the last instant of the configured collection window.
func (c *Corpus) End() time.Time {
	return c.Config.Start.AddDate(0, 0, c.Config.Days)
}
