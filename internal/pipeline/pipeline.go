// Package pipeline orchestrates the paper's three-step processing
// (§III-A): tweets are collected through the keyword filter, augmented
// with a location (GPS geo-tag when present, otherwise the geocoded
// profile location), and filtered again to retain USA users. On top of
// the retained set it builds the user-attention matrix and the dataset
// statistics of Table I and Figure 2.
//
// Processing is incremental: feed tweets one at a time (Process), as a
// slice (ProcessAll), or from a stream channel (CollectParallel) — all
// three run the same per-tweet kernel — and snapshot statistics at any
// point: the "real-time social sensor" mode the paper's conclusion
// envisions.
package pipeline

import (
	"time"

	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/obs/trace"
	"donorsense/internal/organ"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
	"donorsense/internal/userstore"
)

// Outcome classifies what happened to one processed tweet.
type Outcome int

// Processing outcomes.
const (
	// Rejected: the tweet does not satisfy the Context × Subject
	// predicate (it should have been stopped by the stream filter; the
	// pipeline re-checks defensively).
	Rejected Outcome = iota
	// CollectedNonUS: in context, but the user could not be located to a
	// US state.
	CollectedNonUS
	// CollectedUS: in context and located to a US state; contributes to
	// the dataset.
	CollectedUS
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case Rejected:
		return "rejected"
	case CollectedNonUS:
		return "collected-non-us"
	case CollectedUS:
		return "collected-us"
	}
	return "outcome(?)"
}

// UserRecord aggregates everything the dataset retains about one US
// user. Since the columnar store became the backing representation it is
// a view type: EachUser materializes records from the column slices on
// the fly, and the store — not a map of these structs — owns the data.
type UserRecord struct {
	ID        int64
	StateCode string
	// GeoTagged reports whether the state came from a GPS geo-tag rather
	// than the profile location.
	GeoTagged bool
	Tweets    int
	Mentions  [organ.Count]int
	// ClinicalMentions counts organ mentions using clinical variants
	// (renal, hepatic, ...), and Hashtags counts hashtag tokens — the
	// behavioural signals the user-role analysis consumes.
	ClinicalMentions int
	Hashtags         int
	// FirstSeen (UnixNano of the creating tweet's timestamp) and
	// FirstTweetID identify the retained tweet that created this record.
	// They are the Merge tie-break key: when the same user id surfaces in
	// two datasets with conflicting identity fields (StateCode,
	// GeoTagged), the record whose first tweet is earlier — ties broken
	// by smaller tweet id — wins, independent of merge order. Stored as
	// an int64 rather than time.Time so UserRecord stays comparable with
	// == across a gob checkpoint round-trip.
	FirstSeen    int64
	FirstTweetID int64
}

// DistinctOrgans returns how many different organs the user mentioned.
func (u *UserRecord) DistinctOrgans() int {
	n := 0
	for _, m := range u.Mentions {
		if m > 0 {
			n++
		}
	}
	return n
}

// Dataset is the incrementally-built collection state. It is not safe for
// concurrent mutation; ProcessAll and CollectParallel own it while
// running.
type Dataset struct {
	extractor *text.Extractor // Process's scratch; loop workers have their own
	geocoder  *geo.Geocoder

	// locCache memoizes profile-location geocoding; profile strings
	// repeat heavily across tweets of the same user. It is bounded: a
	// 385-day run sees an unbounded stream of distinct (possibly
	// adversarial) profile strings, and an uncapped map is a
	// memory-exhaustion hazard. Sharded so the prepare goroutines can
	// share it without contending on one lock.
	locCache *shardedLocCache

	// store holds every retained user columnar: an open-addressing id →
	// row index, parallel column slices for the scalar fields, the
	// row-major mention matrix the attention build consumes zero-copy,
	// and per-state bitset membership indices (ROADMAP item 4: tens of
	// bytes per user instead of a GC-scanned map of pointer records).
	store *userstore.Store

	totalCollected int // in-context tweets, US or not
	usTweets       int
	geoTagged      int // US tweets located via GPS

	firstTweet, lastTweet time.Time

	// cursor is an opaque stream position owned by the feeding layer,
	// persisted in checkpoints (shard checkpoints of earlier sharded runs
	// carry one; Merge resets it). The dataset itself never interprets it.
	cursor uint64

	// organsPerTweet[k] = number of US tweets mentioning exactly k
	// distinct organs (k >= 1), for Figure 2(b).
	organsPerTweet map[int]int
	mentionSum     int // total distinct-organ mentions across US tweets

	// OnUSTweet, when set, is invoked for every retained US tweet with
	// its extraction — the hook downstream consumers (e.g. the temporal
	// sensor) use to observe the stream without re-parsing it.
	OnUSTweet func(t twitter.Tweet, ex text.Extraction)

	// metrics, when non-nil (SetMetrics), instruments every stage of
	// Process. Nil keeps the hot path branch-cheap and allocation-free.
	metrics *Metrics

	// tracer, when non-nil (SetTracer), continues sampled tweets' traces
	// through the processing stages. pendingTrace is the last sampled
	// tweet folded since the previous checkpoint — the parent for the next
	// checkpoint.save span.
	tracer       *trace.Tracer
	pendingTrace trace.SpanContext

	// analytics is the report engine's opaque warm-start blob
	// (SetAnalyticsState), persisted in v4 checkpoints so a restarted
	// process resumes clustering warm instead of cold.
	analytics []byte

	// top is report.TopMentioners' ranking, maintained by DrainDelta.
	top TopRanking
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		extractor:      text.NewExtractor(),
		geocoder:       geo.NewGeocoder(),
		locCache:       newShardedLocCache(locCacheCap),
		store:          userstore.New(organ.Count),
		organsPerTweet: make(map[int]int),
	}
}

// foldUSTweet applies one retained US tweet to the user store and the
// tweet-level aggregates: the US-tweet tail of fold.
func (d *Dataset) foldUSTweet(t twitter.Tweet, ex text.Extraction, stateCode string, viaGeoTag bool) {
	row, ok := d.store.Find(t.User.ID)
	if !ok {
		var flags uint8
		if viaGeoTag {
			flags = userstore.FlagGeoTagged
		}
		row = d.store.Insert(t.User.ID, stateCode, flags, t.CreatedAt.UnixNano(), t.ID)
	}
	d.store.AddCounts(row, 1, int32(ex.ClinicalMentions), int32(ex.Hashtags))
	mrow := d.store.MentionsRow(row)
	distinct := 0
	for i, m := range ex.Mentions {
		mrow[i] += int32(m)
		if m > 0 {
			distinct++
		}
	}
	d.organsPerTweet[distinct]++
	d.mentionSum += distinct
	if d.OnUSTweet != nil {
		d.OnUSTweet(t, ex)
	}
}

// locate augments the tweet with a location: the GPS geo-tag wins when
// present (precise but rare); otherwise the self-reported profile
// location is geocoded (cached by string).
func (d *Dataset) locate(t *twitter.Tweet) (loc geo.Location, viaGeoTag bool) {
	if t.HasCoordinates {
		if l, ok := d.geocoder.Reverse(t.Coordinates.Lat, t.Coordinates.Lon); ok {
			return l, true
		}
		// A geo-tag outside the USA is decisive even if the profile
		// claims otherwise.
		return geo.Location{}, false
	}
	raw := t.User.Location
	if l, ok := d.locCache.get(raw); ok {
		if d.metrics != nil {
			d.metrics.cacheHits.Inc()
		}
		return l, false
	}
	if d.metrics != nil {
		d.metrics.cacheMisses.Inc()
	}
	l := d.geocoder.Locate(raw)
	d.locCache.put(raw, l)
	return l, false
}

// Cursor returns the stream position last recorded with SetCursor (0 if
// never set). It is persisted in checkpoints.
func (d *Dataset) Cursor() uint64 { return d.cursor }

// SetCursor records an opaque stream position to be persisted with the
// next checkpoint.
func (d *Dataset) SetCursor(c uint64) { d.cursor = c }

// Users returns the number of retained US users.
func (d *Dataset) Users() int { return d.store.Len() }

// StoreFootprint reports the columnar user store's size: retained rows
// and the retained bytes of its columns, hash index, and state bitsets.
// Only the dataset's owner may call it; other goroutines read the
// userstore gauges instead (Metrics.StoreSizes).
func (d *Dataset) StoreFootprint() (rows int, bytes int64) {
	return d.store.Len(), d.store.SizeBytes()
}

// USTweets returns the number of retained US tweets.
func (d *Dataset) USTweets() int { return d.usTweets }

// TotalCollected returns all in-context tweets seen, US or not.
func (d *Dataset) TotalCollected() int { return d.totalCollected }

// GeoTagged returns how many retained US tweets were located via GPS.
func (d *Dataset) GeoTagged() int { return d.geoTagged }

// EachStateSlice iterates the per-state bitset indices: fn receives each
// interned state's code, its retained user count, and the column sums of
// its users' organ mentions. States a merge left without users are
// reported with zero counts.
func (d *Dataset) EachStateSlice(fn func(code string, users int, mentions [organ.Count]int64)) {
	var sums [organ.Count]int64
	for st := 0; st < d.store.StateCount(); st++ {
		idx := uint8(st)
		for i := range sums {
			sums[i] = 0
		}
		d.store.StateMentionSums(idx, sums[:])
		fn(d.store.StateCodeAt(st), d.store.StateUserCount(idx), sums)
	}
}

// BuildAttentionStates constructs the normalized attention matrix Û over
// the retained users, straight from the store's id column and row-major
// mention matrix, and returns each Û row's geo.StateCodes() row (-1 when
// the user's state is not a known code), read through the store's
// interned state column — no per-user map or id lookup.
func (d *Dataset) BuildAttentionStates() (*core.Attention, []int16, error) {
	att, src, err := core.AttentionWithSources(d.store.IDs(), d.store.Mentions())
	if err != nil {
		return nil, nil, err
	}
	var geoRow [256]int16
	for i := range geoRow {
		geoRow[i] = -1
	}
	for i := 0; i < d.store.StateCount(); i++ {
		geoRow[i] = int16(geo.StateIndex(d.store.StateCodeAt(i)))
	}
	states := make([]int16, len(src))
	for r, row := range src {
		states[r] = geoRow[d.store.StateIndex(row)]
	}
	return att, states, nil
}

// EachUser calls fn for every retained user. Iteration order is
// unspecified. The *UserRecord is a scratch view materialized from the
// columns and reused across calls: copy the struct (not the pointer) to
// retain it.
func (d *Dataset) EachUser(fn func(*UserRecord)) {
	var u UserRecord
	for row := int32(0); row < int32(d.store.Len()); row++ {
		d.fillUserRecord(&u, row)
		fn(&u)
	}
}

// LookupUser materializes the record of one user id. It reports false
// when the id is not retained.
func (d *Dataset) LookupUser(id int64) (UserRecord, bool) {
	row, ok := d.store.Find(id)
	if !ok {
		return UserRecord{}, false
	}
	var u UserRecord
	d.fillUserRecord(&u, row)
	return u, true
}

// fillUserRecord materializes one store row into a UserRecord.
func (d *Dataset) fillUserRecord(u *UserRecord, row int32) {
	u.ID = d.store.ID(row)
	u.StateCode = d.store.StateCode(row)
	u.GeoTagged = d.store.GeoTagged(row)
	u.Tweets = int(d.store.Tweets(row))
	u.ClinicalMentions = int(d.store.Clinical(row))
	u.Hashtags = int(d.store.Hashtags(row))
	u.FirstSeen = d.store.FirstSeen(row)
	u.FirstTweetID = d.store.FirstTweetID(row)
	for i, m := range d.store.MentionsRow(row) {
		u.Mentions[i] = int(m)
	}
}
