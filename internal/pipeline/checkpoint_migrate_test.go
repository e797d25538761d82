package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math/rand"
	"testing"
	"time"

	"donorsense/internal/geo"
	"donorsense/internal/organ"
)

// This file covers the payloads older code wrote: a v4 snapshot must
// load with nothing lost, and re-saving it must produce a v5 snapshot
// that round-trips to the same dataset. A v4 snapshot that still carries
// the delete-tracking fields of earlier releases must load as if they
// were absent.

// assertDatasetsIdenticalFull is assertDatasetsEqual plus the state a
// resumed collector depends on: every user record.
func assertDatasetsIdenticalFull(t *testing.T, got, want *Dataset) {
	t.Helper()
	assertDatasetsEqual(t, got, want)
	want.EachUser(func(u *UserRecord) {
		gu, ok := got.LookupUser(u.ID)
		if !ok || gu != *u {
			t.Fatalf("user %d differs: %+v vs %+v", u.ID, gu, u)
		}
	})
	if got.Users() != want.Users() {
		t.Errorf("users = %d, want %d", got.Users(), want.Users())
	}
}

// legacyContribution is the wire shape of the per-status delete-tracking
// record earlier releases persisted.
type legacyContribution struct {
	UserID    int64
	Mentions  [organ.Count]int8
	Clinical  int8
	Hashtags  int8
	Distinct  int8
	GeoTagged bool
}

// legacyCheckpointWire is the exact wire shape of the v4 payloads
// earlier releases wrote: checkpointStateV4 plus the stream cursor and
// the delete-tracking fields. gob leaves zero fields out, so with those
// zero it is the v4 payload of the last release that wrote v4.
type legacyCheckpointWire struct {
	UserIDs        []int64
	FirstSeen      []int64
	FirstTweetID   []int64
	Tweets         []int32
	Clinical       []int32
	Hashtags       []int32
	StateIdx       []uint8
	UserFlags      []uint8
	Mentions       []int32
	StateCodes     []string
	TotalCollected int
	USTweets       int
	GeoTagged      int
	MentionSum     int
	FirstTweet     time.Time
	LastTweet      time.Time
	OrgansPerTweet map[int]int
	TrackDeletions bool
	Contributions  map[int64]legacyContribution
	LocCache       map[string]geo.Location
	Cursor         uint64
	Analytics      []byte
}

// legacyWire encodes d as the legacy wire struct, cursor zero.
func legacyWire(d *Dataset) legacyCheckpointWire {
	st, cols := d.snapshot(), d.store.Columns()
	return legacyCheckpointWire{
		UserIDs:        cols.IDs,
		FirstSeen:      cols.FirstSeen,
		FirstTweetID:   cols.FirstTweetID,
		Tweets:         st.Tweets,
		Clinical:       st.Clinical,
		Hashtags:       st.Hashtags,
		StateIdx:       st.StateIdx,
		UserFlags:      st.UserFlags,
		Mentions:       st.Mentions,
		StateCodes:     st.StateCodes,
		TotalCollected: st.TotalCollected,
		USTweets:       st.USTweets,
		GeoTagged:      st.GeoTagged,
		MentionSum:     st.MentionSum,
		FirstTweet:     st.FirstTweet,
		LastTweet:      st.LastTweet,
		OrgansPerTweet: st.OrgansPerTweet,
		LocCache:       st.LocCache,
		Analytics:      st.RawAnalytics,
	}
}

// writeLegacyCheckpoint frames st under the given version byte with a
// valid header and checksum.
func writeLegacyCheckpoint(t testing.TB, st legacyCheckpointWire, version byte, w *bytes.Buffer) {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		t.Fatalf("encode v%d: %v", version, err)
	}
	magic := checkpointMagic
	magic[7] = version
	w.Write(magic[:])
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload.Bytes()))
	w.Write(hdr[:])
	w.Write(payload.Bytes())
}

// TestCheckpointV4MigrationRoundTrip is the migration property test over
// randomized datasets (randomized tweet window, a nonzero stream cursor
// in the file): a v4 snapshot must load with its analytics blob and
// everything else intact, re-saving must produce a v5 snapshot that
// round-trips the dataset and the blob byte for byte, and the migrated
// dataset must keep collecting identically.
func TestCheckpointV4MigrationRoundTrip(t *testing.T) {
	tweets := sharedCorpus.Tweets
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		lo := r.Intn(len(tweets) / 2)
		hi := lo + 1 + r.Intn(len(tweets)-lo-1)
		for _, tw := range tweets[lo:hi] {
			d.Process(tw)
		}
		blob := make([]byte, 64)
		r.Read(blob)
		d.SetAnalyticsState(blob)

		st := legacyWire(d)
		st.Cursor = uint64(r.Int63())
		var v4 bytes.Buffer
		writeLegacyCheckpoint(t, st, checkpointVersionV4, &v4)
		migrated, err := ReadCheckpoint(bytes.NewReader(v4.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: load v4: %v", seed, err)
		}
		assertDatasetsIdenticalFull(t, migrated, d)
		if !bytes.Equal(migrated.AnalyticsState(), blob) {
			t.Fatalf("seed %d: v4 analytics blob did not load", seed)
		}

		var v5 bytes.Buffer
		if err := migrated.WriteCheckpoint(&v5); err != nil {
			t.Fatalf("seed %d: save v5: %v", seed, err)
		}
		if v5.Bytes()[7] != checkpointVersion {
			t.Fatalf("seed %d: re-save wrote version %d, want %d",
				seed, v5.Bytes()[7], checkpointVersion)
		}
		reloaded, err := ReadCheckpoint(bytes.NewReader(v5.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: reload v5: %v", seed, err)
		}
		assertDatasetsIdenticalFull(t, reloaded, d)
		if !bytes.Equal(reloaded.AnalyticsState(), blob) {
			t.Fatalf("seed %d: analytics blob did not round-trip", seed)
		}

		for _, tw := range tweets[hi:min(hi+2000, len(tweets))] {
			d.Process(tw)
			reloaded.Process(tw)
		}
		assertDatasetsIdenticalFull(t, reloaded, d)
	}
}

// TestCheckpointIgnoresDeletionTrackingFields loads a v4 payload in the
// shape earlier releases wrote, with delete tracking on and a non-empty
// contribution log, and requires the same Table I, users and analytics
// blob as the same dataset saved by the current code.
func TestCheckpointIgnoresDeletionTrackingFields(t *testing.T) {
	d := NewDataset()
	contribs := map[int64]legacyContribution{}
	for _, tw := range sharedCorpus.Tweets[:3000] {
		if d.Process(tw) == CollectedUS {
			contribs[tw.ID] = legacyContribution{UserID: tw.User.ID, Mentions: [organ.Count]int8{1}, Distinct: 1}
		}
	}
	if len(contribs) == 0 {
		t.Fatal("no US tweet in prefix; fixture broken")
	}
	d.SetAnalyticsState([]byte("warm blob"))
	st := legacyWire(d)
	st.Cursor, st.TrackDeletions, st.Contributions = 4242, true, contribs

	var legacy, current bytes.Buffer
	writeLegacyCheckpoint(t, st, checkpointVersionV4, &legacy)
	if err := d.WriteCheckpoint(&current); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&legacy)
	if err != nil {
		t.Fatalf("load legacy v4: %v", err)
	}
	want, err := ReadCheckpoint(&current)
	if err != nil {
		t.Fatalf("load current v5: %v", err)
	}
	if got.Stats() != want.Stats() {
		t.Errorf("Table I = %+v, want %+v", got.Stats(), want.Stats())
	}
	assertDatasetsIdenticalFull(t, got, want)
	if !bytes.Equal(got.AnalyticsState(), want.AnalyticsState()) {
		t.Errorf("analytics blob = %q, want %q", got.AnalyticsState(), want.AnalyticsState())
	}
}
