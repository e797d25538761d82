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

// This file covers the payloads older code wrote: a pre-analytics v3
// snapshot must load with nothing lost, and re-saving it must produce a
// v4 snapshot that round-trips to the same dataset, merge cursor
// included. A v4 snapshot that still carries the delete-tracking fields
// of earlier releases must load as if they were absent.

// assertDatasetsIdenticalFull is assertDatasetsEqual plus the state a
// resumed collector depends on: every user record and the stream cursor.
func assertDatasetsIdenticalFull(t *testing.T, got, want *Dataset) {
	t.Helper()
	assertDatasetsEqual(t, got, want)
	if got.Cursor() != want.Cursor() {
		t.Errorf("cursor = %d, want %d", got.Cursor(), want.Cursor())
	}
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

// legacyCheckpointWire is the exact wire shape of the payloads earlier
// releases wrote: checkpointStateV4 plus the delete-tracking fields.
// gob leaves zero fields out, so with Analytics nil it is also the
// pre-analytics v3 payload.
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

// legacyWire re-encodes d's v4 snapshot through the legacy wire struct.
func legacyWire(d *Dataset) legacyCheckpointWire {
	v4 := d.snapshot()
	return legacyCheckpointWire{
		UserIDs:        v4.UserIDs,
		FirstSeen:      v4.FirstSeen,
		FirstTweetID:   v4.FirstTweetID,
		Tweets:         v4.Tweets,
		Clinical:       v4.Clinical,
		Hashtags:       v4.Hashtags,
		StateIdx:       v4.StateIdx,
		UserFlags:      v4.UserFlags,
		Mentions:       v4.Mentions,
		StateCodes:     v4.StateCodes,
		TotalCollected: v4.TotalCollected,
		USTweets:       v4.USTweets,
		GeoTagged:      v4.GeoTagged,
		MentionSum:     v4.MentionSum,
		FirstTweet:     v4.FirstTweet,
		LastTweet:      v4.LastTweet,
		OrgansPerTweet: v4.OrgansPerTweet,
		LocCache:       v4.LocCache,
		Cursor:         v4.Cursor,
		Analytics:      v4.Analytics,
	}
}

// writeLegacyCheckpoint frames st under the given version byte with a
// valid header and checksum.
func writeLegacyCheckpoint(t *testing.T, st legacyCheckpointWire, version byte, w *bytes.Buffer) {
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

// TestCheckpointV3MigrationRoundTrip is the migration property test over
// randomized datasets (randomized tweet window, a nonzero cursor): a
// pre-analytics snapshot must load with the analytics blob nil and
// everything else intact, re-saving must produce a v4 snapshot that
// round-trips the blob byte-for-byte once one is attached, and the
// migrated dataset must keep collecting identically.
func TestCheckpointV3MigrationRoundTrip(t *testing.T) {
	tweets := sharedCorpus.Tweets
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		lo := r.Intn(len(tweets) / 2)
		hi := lo + 1 + r.Intn(len(tweets)-lo-1)
		for _, tw := range tweets[lo:hi] {
			d.Process(tw)
		}
		d.SetCursor(uint64(r.Int63()))

		var v3 bytes.Buffer
		writeLegacyCheckpoint(t, legacyWire(d), checkpointVersionV3, &v3)
		migrated, err := ReadCheckpoint(bytes.NewReader(v3.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: load v3: %v", seed, err)
		}
		assertDatasetsIdenticalFull(t, migrated, d)
		if migrated.AnalyticsState() != nil {
			t.Fatalf("seed %d: v3 snapshot loaded a non-nil analytics blob", seed)
		}

		blob := make([]byte, 64)
		r.Read(blob)
		migrated.SetAnalyticsState(blob)
		var v4 bytes.Buffer
		if err := migrated.WriteCheckpoint(&v4); err != nil {
			t.Fatalf("seed %d: save v4: %v", seed, err)
		}
		if v4.Bytes()[7] != checkpointVersion {
			t.Fatalf("seed %d: re-save wrote version %d, want %d",
				seed, v4.Bytes()[7], checkpointVersion)
		}
		reloaded, err := ReadCheckpoint(bytes.NewReader(v4.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: reload v4: %v", seed, err)
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
// contribution log, and requires the same Table I, users, cursor and
// analytics blob as the same dataset saved by the current code.
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
	d.SetCursor(4242)
	d.SetAnalyticsState([]byte("warm blob"))
	st := legacyWire(d)
	st.TrackDeletions, st.Contributions = true, contribs

	var legacy, current bytes.Buffer
	writeLegacyCheckpoint(t, st, checkpointVersion, &legacy)
	if err := d.WriteCheckpoint(&current); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(&legacy)
	if err != nil {
		t.Fatalf("load legacy v4: %v", err)
	}
	want, err := ReadCheckpoint(&current)
	if err != nil {
		t.Fatalf("load current v4: %v", err)
	}
	if got.Stats() != want.Stats() {
		t.Errorf("Table I = %+v, want %+v", got.Stats(), want.Stats())
	}
	assertDatasetsIdenticalFull(t, got, want)
	if !bytes.Equal(got.AnalyticsState(), want.AnalyticsState()) {
		t.Errorf("analytics blob = %q, want %q", got.AnalyticsState(), want.AnalyticsState())
	}
}
