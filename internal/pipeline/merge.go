package pipeline

import (
	"donorsense/internal/geo"
	"donorsense/internal/userstore"
)

// Merge folds the state of another dataset into this one. Datasets
// built over a user-id partition of one stream merge (in any order, any
// grouping) into statistics bit-identical to one process consuming the
// whole stream; tests use it as that partition oracle.
//
// The fold is associative and commutative:
//
//   - Counters (totalCollected, usTweets, geoTagged, mentionSum) and the
//     Figure 2(b) histogram are key-wise sums.
//   - The collection window is min(firstTweet) / max(lastTweet).
//   - Per-user records for distinct user ids are unioned. When the same
//     user id appears on both sides (impossible under a user-id
//     partition, but Merge does not assume it), the counts sum and
//     the identity fields (StateCode, GeoTagged) follow the record with
//     the earlier first retained tweet — ties broken by smaller first
//     tweet id, then lexicographic StateCode, then GeoTagged false
//     before true. The tie-break is a total order on the identity key,
//     which is what makes conflicting merges order-insensitive.
//   - The geocode memo is unioned best-effort (it is a cache; it cannot
//     change results).
//
// Merge takes ownership of other's user records and must be the last use
// of other. Merging a dataset into itself is not allowed.
func (d *Dataset) Merge(other *Dataset) {
	if other == nil || other == d {
		return
	}
	d.totalCollected += other.totalCollected
	d.usTweets += other.usTweets
	d.geoTagged += other.geoTagged
	d.mentionSum += other.mentionSum
	if d.firstTweet.IsZero() || (!other.firstTweet.IsZero() && other.firstTweet.Before(d.firstTweet)) {
		d.firstTweet = other.firstTweet
	}
	if other.lastTweet.After(d.lastTweet) {
		d.lastTweet = other.lastTweet
	}
	for k, n := range other.organsPerTweet {
		d.organsPerTweet[k] += n
	}

	os := other.store
	for row := int32(0); row < int32(os.Len()); row++ {
		id := os.ID(row)
		drow, ok := d.store.Find(id)
		if !ok {
			drow = d.store.Insert(id, os.StateCode(row), os.Flags(row),
				os.FirstSeen(row), os.FirstTweetID(row))
		} else if rowBefore(os, row, d.store, drow) {
			d.store.SetIdentity(drow, os.StateCode(row), os.Flags(row),
				os.FirstSeen(row), os.FirstTweetID(row))
		}
		d.store.AddCounts(drow, os.Tweets(row), os.Clinical(row), os.Hashtags(row))
		dst := d.store.MentionsRow(drow)
		for i, v := range os.MentionsRow(row) {
			dst[i] += v
		}
	}

	other.locCache.each(func(k string, v geo.Location) { d.locCache.put(k, v) })
	if d.metrics != nil {
		d.metrics.updateSizes(d)
	}
}

// rowBefore reports whether store a's row ar has the earlier first
// retained tweet under the documented merge tie-break order: first-seen
// time, then tweet id, then state code, then geo-tag flag. It is a
// strict weak order; rows equal under all four keys compare false both
// ways (either wins, and their identity fields are identical anyway).
func rowBefore(a *userstore.Store, ar int32, b *userstore.Store, br int32) bool {
	if a.FirstSeen(ar) != b.FirstSeen(br) {
		return a.FirstSeen(ar) < b.FirstSeen(br)
	}
	if a.FirstTweetID(ar) != b.FirstTweetID(br) {
		return a.FirstTweetID(ar) < b.FirstTweetID(br)
	}
	if a.StateCode(ar) != b.StateCode(br) {
		return a.StateCode(ar) < b.StateCode(br)
	}
	return !a.GeoTagged(ar) && b.GeoTagged(br)
}
