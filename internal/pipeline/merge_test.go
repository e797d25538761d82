package pipeline

import (
	"math/rand"
	"testing"
	"time"

	"donorsense/internal/twitter"
)

// partitionByUser splits the tweets into n parts by user id, so every
// tweet of one user lands in the same part, and folds each part into its
// own dataset. Merge must hold for any user partition; a modulo split
// is the simplest one.
func partitionByUser(tweets []twitter.Tweet, n int) []*Dataset {
	parts := make([]*Dataset, n)
	for i := range parts {
		parts[i] = NewDataset()
	}
	for _, tw := range tweets {
		parts[uint64(tw.User.ID)%uint64(n)].Process(tw)
	}
	return parts
}

// assertUsersEqual compares the full per-user records, not just the
// aggregate statistics: identity fields, counts, and the organ-mention
// vectors must all match.
func assertUsersEqual(t *testing.T, got, want *Dataset) {
	t.Helper()
	if got.Users() != want.Users() {
		t.Fatalf("user count = %d, want %d", got.Users(), want.Users())
	}
	wantRec := make(map[int64]UserRecord, want.Users())
	want.EachUser(func(u *UserRecord) { wantRec[u.ID] = *u })
	got.EachUser(func(u *UserRecord) {
		w, ok := wantRec[u.ID]
		if !ok {
			t.Errorf("unexpected user %d in merged dataset", u.ID)
			return
		}
		if *u != w {
			t.Errorf("user %d record mismatch:\n got %+v\nwant %+v", u.ID, *u, w)
		}
	})
}

// TestMergeShardedEqualsSequential is the associativity/commutativity
// property test: split the shared corpus across 2–8 parts by user id,
// merge the part datasets in several shuffled orders, and require
// every merge order to reproduce the single-process dataset exactly —
// statistics and per-user records alike.
func TestMergeShardedEqualsSequential(t *testing.T) {
	tweets := sharedCorpus.Tweets
	rng := rand.New(rand.NewSource(7))
	for shards := 2; shards <= 8; shards++ {
		for trial := 0; trial < 3; trial++ {
			parts := partitionByUser(tweets, shards)
			order := rng.Perm(shards)
			merged := parts[order[0]]
			for _, i := range order[1:] {
				merged.Merge(parts[i])
			}
			assertDatasetsEqual(t, merged, sharedDataset)
			assertUsersEqual(t, merged, sharedDataset)
		}
	}
}

// TestMergeTreeGrouping merges already-merged datasets (pairwise rounds
// over 8 shards) — the grouping a hierarchical reducer would use — and
// requires the same result as any flat fold.
func TestMergeTreeGrouping(t *testing.T) {
	parts := partitionByUser(sharedCorpus.Tweets, 8)
	for len(parts) > 1 {
		next := parts[:0]
		for i := 0; i+1 < len(parts); i += 2 {
			parts[i].Merge(parts[i+1])
			next = append(next, parts[i])
		}
		parts = next
	}
	assertDatasetsEqual(t, parts[0], sharedDataset)
	assertUsersEqual(t, parts[0], sharedDataset)
}

// mergeTweet builds an in-context US tweet for the collision tests.
func mergeTweet(id, userID int64, at time.Time, loc string) twitter.Tweet {
	return twitter.Tweet{
		ID:        id,
		Text:      "register as an organ donor, one kidney saves a life",
		CreatedAt: at,
		User:      twitter.User{ID: userID, Location: loc},
	}
}

// TestMergeUserCollisionTieBreak pins the documented conflict rule: when
// the same user id appears on both sides with different identity fields,
// the record with the earlier first retained tweet supplies StateCode /
// GeoTagged / FirstSeen / FirstTweetID, counts sum, and the outcome is
// the same whichever side the merge starts from.
func TestMergeUserCollisionTieBreak(t *testing.T) {
	base := time.Date(2016, time.March, 6, 12, 0, 0, 0, time.UTC)
	early := mergeTweet(100, 42, base, "Wichita, KS")
	late := mergeTweet(200, 42, base.Add(time.Hour), "Austin, TX")

	build := func(tweets ...twitter.Tweet) *Dataset {
		d := NewDataset()
		for _, tw := range tweets {
			if got := d.Process(tw); got != CollectedUS {
				t.Fatalf("tweet %d outcome = %v, want CollectedUS", tw.ID, got)
			}
		}
		return d
	}

	for name, order := range map[string][2]twitter.Tweet{
		"early-into-late": {late, early},
		"late-into-early": {early, late},
	} {
		d := build(order[0])
		d.Merge(build(order[1]))
		if d.Users() != 1 {
			t.Fatalf("%s: users = %d, want 1", name, d.Users())
		}
		d.EachUser(func(u *UserRecord) {
			if u.StateCode != "KS" || u.GeoTagged {
				t.Errorf("%s: identity = (%s, geo=%v), want earlier record's (KS, geo=false)", name, u.StateCode, u.GeoTagged)
			}
			if u.FirstTweetID != 100 || u.FirstSeen != base.UnixNano() {
				t.Errorf("%s: first-seen key = (%d, %d), want (100, %d)", name, u.FirstTweetID, u.FirstSeen, base.UnixNano())
			}
			if u.Tweets != 2 {
				t.Errorf("%s: tweets = %d, want 2", name, u.Tweets)
			}
		})
	}

	// Same timestamp on both sides: the smaller tweet id wins.
	a := mergeTweet(300, 77, base, "Austin, TX")
	b := mergeTweet(301, 77, base, "Wichita, KS")
	d := build(b)
	d.Merge(build(a))
	d.EachUser(func(u *UserRecord) {
		if u.StateCode != "TX" || u.FirstTweetID != 300 {
			t.Errorf("timestamp tie: got (%s, %d), want smaller-id record (TX, 300)", u.StateCode, u.FirstTweetID)
		}
	})
}
