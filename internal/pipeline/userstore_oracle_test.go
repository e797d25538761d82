package pipeline

import (
	"math/rand"
	"testing"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

// The differential oracle: the map-of-pointer-structs user store the
// columnar store replaced, re-implemented test-side with the exact old
// fold semantics. Every paper statistic computed from the real Dataset —
// Table I, the Figure 2 histograms, the attention matrix, the state
// signatures, the relative risks, and the cluster assignments — must be
// bit-identical to the oracle's, across sequential, -workers, and
// user-partitioned merged runs.

// mapStoreOracle replays the pre-columnar Dataset fold over a tweet
// stream.
type mapStoreOracle struct {
	extractor *text.Extractor
	geocoder  *geo.Geocoder
	locCache  map[string]geo.Location

	users map[int64]*UserRecord

	totalCollected int
	usTweets       int
	geoTagged      int
	mentionSum     int
	first, last    int64 // UnixNano window, 0 = unset
	firstSet       bool
	organsPerTweet map[int]int
}

func newMapStoreOracle() *mapStoreOracle {
	return &mapStoreOracle{
		extractor:      text.NewExtractor(),
		geocoder:       geo.NewGeocoder(),
		locCache:       make(map[string]geo.Location),
		users:          make(map[int64]*UserRecord),
		organsPerTweet: make(map[int]int),
	}
}

func (o *mapStoreOracle) locate(t twitter.Tweet) (geo.Location, bool) {
	if t.HasCoordinates {
		if l, ok := o.geocoder.Reverse(t.Coordinates.Lat, t.Coordinates.Lon); ok {
			return l, true
		}
		return geo.Location{}, false
	}
	if l, ok := o.locCache[t.User.Location]; ok {
		return l, false
	}
	l := o.geocoder.Locate(t.User.Location)
	o.locCache[t.User.Location] = l
	return l, false
}

func (o *mapStoreOracle) process(t twitter.Tweet) {
	ex := o.extractor.Extract(t.Text)
	if !ex.InContext() {
		return
	}
	o.totalCollected++
	loc, viaGeoTag := o.locate(t)
	if !loc.IsUSState() {
		return
	}
	o.usTweets++
	if viaGeoTag {
		o.geoTagged++
	}
	ns := t.CreatedAt.UnixNano()
	if !o.firstSet || ns < o.first {
		o.first = ns
		o.firstSet = true
	}
	if ns > o.last {
		o.last = ns
	}
	u := o.users[t.User.ID]
	if u == nil {
		u = &UserRecord{ID: t.User.ID, StateCode: loc.StateCode, GeoTagged: viaGeoTag,
			FirstSeen: ns, FirstTweetID: t.ID}
		o.users[t.User.ID] = u
	}
	u.Tweets++
	u.ClinicalMentions += ex.ClinicalMentions
	u.Hashtags += ex.Hashtags
	distinct := 0
	for i, m := range ex.Mentions {
		u.Mentions[i] += m
		if m > 0 {
			distinct++
		}
	}
	o.organsPerTweet[distinct]++
	o.mentionSum += distinct
}

// attention builds Û from the oracle's per-user counts, with each row's
// geo.StateCodes() row read from the oracle's map.
func (o *mapStoreOracle) attention(t *testing.T) (*core.Attention, []int16) {
	t.Helper()
	ids := make([]int64, 0, len(o.users))
	counts := make([]int32, 0, len(o.users)*organ.Count)
	for id, u := range o.users {
		ids = append(ids, id)
		for _, m := range u.Mentions {
			counts = append(counts, int32(m))
		}
	}
	att, err := core.AttentionFromCounts(ids, counts)
	if err != nil {
		t.Fatalf("oracle attention: %v", err)
	}
	states := make([]int16, att.Users())
	for r, id := range att.UserIDs() {
		states[r] = int16(geo.StateIndex(o.users[id].StateCode))
	}
	return att, states
}

// figuresOf computes Figure 4, Figure 5 and the winner-takes-all
// baseline from Û and its rows' states, the way a cold build does.
func figuresOf(att *core.Attention, states []int16) (*core.RegionCharacterization, *core.HighlightResult, map[string]organ.Organ, error) {
	sums := core.NewGroupSums(len(geo.StateCodes()))
	cells := core.NewStateOrganCells()
	for r, s := range states {
		if s < 0 {
			continue
		}
		row := att.Matrix().RowView(r)
		if err := sums.Fold(int(s), row, 1); err != nil {
			return nil, nil, nil, err
		}
		mask := uint8(0)
		for j, v := range row {
			if v > 0 {
				mask |= 1 << j
			}
		}
		cells.AddUser(int(s), mask, 1)
	}
	rc, err := sums.Regions()
	if err != nil {
		return nil, nil, nil, err
	}
	h, err := cells.Highlight()
	if err != nil {
		return nil, nil, nil, err
	}
	w, err := cells.WinnerTakesAll()
	return rc, h, w, err
}

// assertMatchesOracle checks every paper statistic of d bit-for-bit
// against the oracle.
func assertMatchesOracle(t *testing.T, label string, d *Dataset, o *mapStoreOracle) {
	t.Helper()

	// Table I scalars (floats compared with ==, not a tolerance).
	st := d.Stats()
	if st.TweetsCollected != o.usTweets || st.TotalCollected != o.totalCollected ||
		st.Users != len(o.users) || st.GeoTagRate != float64(o.geoTagged)/float64(o.usTweets) ||
		st.OrgansPerTweet != float64(o.mentionSum)/float64(o.usTweets) {
		t.Errorf("%s: Table I diverges from oracle: %+v", label, st)
	}
	oOrgansPerUser := 0
	for _, u := range o.users {
		oOrgansPerUser += u.DistinctOrgans()
	}
	if st.OrgansPerUser != float64(oOrgansPerUser)/float64(len(o.users)) {
		t.Errorf("%s: organs/user %v diverges", label, st.OrgansPerUser)
	}

	// Per-user records.
	if d.Users() != len(o.users) {
		t.Fatalf("%s: %d users, oracle %d", label, d.Users(), len(o.users))
	}
	d.EachUser(func(u *UserRecord) {
		ou := o.users[u.ID]
		if ou == nil || *ou != *u {
			t.Fatalf("%s: user %d: %+v, oracle %+v", label, u.ID, u, ou)
		}
	})

	// Figure 2 histograms.
	var oPerOrgan [organ.Count]int
	var oMultiUsers [organ.Count]int
	for _, u := range o.users {
		for i, m := range u.Mentions {
			if m > 0 {
				oPerOrgan[i]++
			}
		}
		if k := u.DistinctOrgans(); k >= 1 && k <= organ.Count {
			oMultiUsers[k-1]++
		}
	}
	if usersPerOrgan(d) != oPerOrgan {
		t.Errorf("%s: users-per-organ diverges", label)
	}
	var oMultiTweets [organ.Count]int
	for k, n := range o.organsPerTweet {
		if k >= 1 && k <= organ.Count {
			oMultiTweets[k-1] = n
		}
	}
	mt, mu := d.TweetOrganHistogram(), userOrganHistogram(d)
	if mt != oMultiTweets || mu != oMultiUsers {
		t.Errorf("%s: multi-organ histogram diverges", label)
	}

	// Attention: same users, same row order, bit-identical Û.
	att, states, err := d.BuildAttentionStates(nil)
	if err != nil {
		t.Fatalf("%s: attention: %v", label, err)
	}
	oatt, ostates := o.attention(t)
	if att.Users() != oatt.Users() {
		t.Fatalf("%s: attention rows %d, oracle %d", label, att.Users(), oatt.Users())
	}
	gotIDs, wantIDs := att.UserIDs(), oatt.UserIDs()
	for r := range gotIDs {
		if gotIDs[r] != wantIDs[r] || states[r] != ostates[r] {
			t.Fatalf("%s: attention row %d id %d state %d, oracle %d state %d", label, r, gotIDs[r], states[r], wantIDs[r], ostates[r])
		}
		gr, wr := att.Matrix().RowView(r), oatt.Matrix().RowView(r)
		for c := range gr {
			if gr[c] != wr[c] {
				t.Fatalf("%s: Û[%d,%d] = %v, oracle %v", label, r, c, gr[c], wr[c])
			}
		}
	}

	gotRC, gotH, gotW, err1 := figuresOf(att, states)
	wantRC, wantH, wantW, err2 := figuresOf(oatt, ostates)
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: figures: %v / %v", label, err1, err2)
	}
	// State signatures (Figure 4): float-exact K.
	for s := 0; s < len(wantRC.StateCodes); s++ {
		gr, wr := gotRC.K.RowView(s), wantRC.K.RowView(s)
		for c := range gr {
			if gr[c] != wr[c] {
				t.Fatalf("%s: K[%s,%d] = %v, oracle %v", label, wantRC.StateCodes[s], c, gr[c], wr[c])
			}
		}
	}
	// Relative risks (Figure 5): bit-identical estimates and intervals.
	for s := range wantH.Risks {
		for j := range wantH.Risks[s] {
			if gotH.Risks[s][j] != wantH.Risks[s][j] {
				t.Fatalf("%s: RR[%s][%d] = %+v, oracle %+v", label,
					wantH.StateCodes[s], j, gotH.Risks[s][j], wantH.Risks[s][j])
			}
		}
	}
	for code, want := range wantW {
		if gotW[code] != want {
			t.Errorf("%s: winner[%s] = %v, oracle %v", label, code, gotW[code], want)
		}
	}

	// Cluster assignments (Figure 7): identical labels row for row.
	if att.Users() >= 12 {
		cfg := cluster.KMeansConfig{K: 12, Seed: 1, Restarts: 2}
		gotKM, err1 := cluster.KMeans(att.Matrix(), cfg)
		wantKM, err2 := cluster.KMeans(oatt.Matrix(), cfg)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: kmeans: %v / %v", label, err1, err2)
		}
		for r := range wantKM.Labels {
			if gotKM.Labels[r] != wantKM.Labels[r] {
				t.Fatalf("%s: cluster label row %d = %d, oracle %d", label, r, gotKM.Labels[r], wantKM.Labels[r])
			}
		}
	}
}

// TestColumnarMatchesMapOracle runs the full differential suite in the
// three execution modes: sequential, parallel workers, and a 4-part user
// partition merged in shuffled orders.
func TestColumnarMatchesMapOracle(t *testing.T) {
	tweets := sharedCorpus.Tweets
	oracle := newMapStoreOracle()
	for _, tw := range tweets {
		oracle.process(tw)
	}

	t.Run("sequential", func(t *testing.T) {
		assertMatchesOracle(t, "sequential", sharedDataset, oracle)
	})

	t.Run("workers", func(t *testing.T) {
		d := NewDataset()
		d.ProcessAll(tweets, 4)
		assertMatchesOracle(t, "workers=4", d, oracle)
	})

	t.Run("shards", func(t *testing.T) {
		const shards = 4
		// Merge in several shuffled orders; every order must match.
		for seed := int64(0); seed < 3; seed++ {
			order := rand.New(rand.NewSource(seed)).Perm(shards)
			// Merge consumes its argument's store, so each round
			// rebuilds the partition.
			round := partitionByUser(tweets, shards)
			merged := round[order[0]]
			for _, i := range order[1:] {
				merged.Merge(round[i])
			}
			assertMatchesOracle(t, "shards", merged, oracle)
		}
	})
}
