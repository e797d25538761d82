package pipeline

import (
	"time"

	"donorsense/internal/organ"
)

// TableI is the dataset-statistics summary of the paper's Table I.
type TableI struct {
	Start, End       time.Time
	Days             int
	TweetsCollected  int     // US tweets retained (the paper's 134,986)
	TotalCollected   int     // all in-context tweets (the paper's 975,021)
	Users            int     // US users (the paper's 71,947)
	AvgTweetsPerDay  float64 // ≈350
	AvgTweetsPerUser float64 // ≈1.88
	OrgansPerTweet   float64 // ≈1.03
	OrgansPerUser    float64 // ≈1.13
	GeoTagRate       float64 // fraction of retained tweets located by GPS (≈0.014)
}

// Stats summarizes the dataset in Table I form. Day count is derived from
// the observed tweet span (inclusive of both end days). OrgansPerUser
// costs one scan of the mention matrix; the report engine reads Table I
// through StatsFromDistinct instead, with the pair total it maintains.
func (d *Dataset) Stats() TableI {
	t := d.statsBase()
	if t.Users > 0 {
		total := 0
		ments := d.store.Mentions()
		for r := 0; r < t.Users; r++ {
			for _, m := range ments[r*organ.Count : (r+1)*organ.Count] {
				if m > 0 {
					total++
				}
			}
		}
		t.OrgansPerUser = float64(total) / float64(t.Users)
	}
	return t
}

// StatsFromDistinct is Stats with the distinct (user, organ) pair total
// supplied by the caller — the incremental engine maintains it in a
// mergeable accumulator, so Table I no longer needs the O(users) mention
// scan. Identical output to Stats when the supplied total matches the
// store.
func (d *Dataset) StatsFromDistinct(distinctTotal int) TableI {
	t := d.statsBase()
	if t.Users > 0 {
		t.OrgansPerUser = float64(distinctTotal) / float64(t.Users)
	}
	return t
}

// statsBase computes every Table I field except OrgansPerUser (the only
// one needing a user scan or an accumulator).
func (d *Dataset) statsBase() TableI {
	t := TableI{
		Start:           d.firstTweet,
		End:             d.lastTweet,
		TweetsCollected: d.usTweets,
		TotalCollected:  d.totalCollected,
		Users:           d.store.Len(),
	}
	if !d.firstTweet.IsZero() {
		t.Days = int(d.lastTweet.Sub(d.firstTweet).Hours()/24) + 1
	}
	if t.Days > 0 {
		t.AvgTweetsPerDay = float64(d.usTweets) / float64(t.Days)
	}
	if t.Users > 0 {
		t.AvgTweetsPerUser = float64(d.usTweets) / float64(t.Users)
	}
	if d.usTweets > 0 {
		t.OrgansPerTweet = float64(d.mentionSum) / float64(d.usTweets)
		t.GeoTagRate = float64(d.geoTagged) / float64(d.usTweets)
	}
	return t
}
