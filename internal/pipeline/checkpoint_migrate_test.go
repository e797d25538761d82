package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"donorsense/internal/geo"
)

// This file covers the checkpoint v3 → v4 migration: a pre-analytics
// snapshot must load with nothing lost, and re-saving it must produce a
// v4 snapshot that round-trips to the same dataset — merge cursor and
// delete log included.

// assertDatasetsIdenticalFull is assertDatasetsEqual plus the state a
// resumed collector depends on: every user record, the stream cursor,
// and the delete log.
func assertDatasetsIdenticalFull(t *testing.T, got, want *Dataset) {
	t.Helper()
	assertDatasetsEqual(t, got, want)
	if got.Cursor() != want.Cursor() {
		t.Errorf("cursor = %d, want %d", got.Cursor(), want.Cursor())
	}
	if got.DeletionTrackingEnabled() != want.DeletionTrackingEnabled() {
		t.Fatalf("deletion tracking = %v, want %v",
			got.DeletionTrackingEnabled(), want.DeletionTrackingEnabled())
	}
	if !reflect.DeepEqual(got.contributions, want.contributions) {
		t.Errorf("delete log differs: %d vs %d records",
			len(got.contributions), len(want.contributions))
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

// checkpointStateV3Wire is the exact wire shape of a pre-analytics v3
// payload (checkpointStateV4 without the Analytics field), kept
// test-side as the fixture generator for v3 → v4 migration coverage.
type checkpointStateV3Wire struct {
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
	Contributions  map[int64]checkpointContribution
	LocCache       map[string]geo.Location
	Cursor         uint64
}

// writeCheckpointV3 emits a dataset in the pre-analytics v3 format: the
// v4 snapshot re-encoded through the old wire struct under the old
// version byte.
func writeCheckpointV3(t *testing.T, d *Dataset, w *bytes.Buffer) {
	t.Helper()
	v4 := d.snapshot()
	st := checkpointStateV3Wire{
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
		TrackDeletions: v4.TrackDeletions,
		Contributions:  v4.Contributions,
		LocCache:       v4.LocCache,
		Cursor:         v4.Cursor,
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		t.Fatalf("encode v3: %v", err)
	}
	magic := checkpointMagic
	magic[7] = checkpointVersionV3
	w.Write(magic[:])
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload.Bytes()))
	w.Write(hdr[:])
	w.Write(payload.Bytes())
}

// TestCheckpointV3MigrationRoundTrip is the migration property test over
// randomized datasets (randomized tweet window, delete tracking on or
// off, random deletes, a nonzero cursor): a pre-analytics snapshot must
// load with the analytics blob nil and everything else intact,
// re-saving must produce a v4 snapshot that round-trips the blob
// byte-for-byte once one is attached, and the migrated dataset must keep
// collecting identically.
func TestCheckpointV3MigrationRoundTrip(t *testing.T) {
	tweets := sharedCorpus.Tweets
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		track := seed%2 == 0
		if track {
			d.TrackDeletions()
		}
		lo := r.Intn(len(tweets) / 2)
		hi := lo + 1 + r.Intn(len(tweets)-lo-1)
		var retained []int64
		for _, tw := range tweets[lo:hi] {
			if d.Process(tw) == CollectedUS {
				retained = append(retained, tw.ID)
			}
		}
		if track {
			for i := 0; i < len(retained)/3; i++ {
				d.Delete(retained[r.Intn(len(retained))])
			}
		}
		d.SetCursor(uint64(r.Int63()))

		var v3 bytes.Buffer
		writeCheckpointV3(t, d, &v3)
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
