package main

import (
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

// matchedCorpus is durableCorpus as a collector receives it: only the
// tweets the replay's track filter passes, in corpus order.
func matchedCorpus() []twitter.Tweet {
	filter := twitter.NewTrackFilter(organ.TrackTerms())
	var out []twitter.Tweet
	for _, tw := range durableCorpus() {
		if filter.Matches(tw.Text) {
			out = append(out, tw)
		}
	}
	return out
}

// processAll folds tweets into a fresh dataset one at a time: the
// sequential reference every collect path must reproduce.
func processAll(tweets []twitter.Tweet) *pipeline.Dataset {
	d := pipeline.NewDataset()
	for _, tw := range tweets {
		d.Process(tw)
	}
	return d
}

// assertSameDataset compares Table I and every per-user record.
func assertSameDataset(t *testing.T, got, want *pipeline.Dataset) {
	t.Helper()
	g, w := got.Stats(), want.Stats()
	if !g.Start.Equal(w.Start) || !g.End.Equal(w.End) {
		t.Errorf("Table I window = %v..%v, want %v..%v", g.Start, g.End, w.Start, w.End)
	}
	g.Start, g.End, w.Start, w.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	if g != w {
		t.Errorf("Table I = %+v, want %+v", g, w)
	}
	wantUsers := make(map[int64]pipeline.UserRecord, want.Users())
	want.EachUser(func(u *pipeline.UserRecord) { wantUsers[u.ID] = *u })
	if got.Users() != len(wantUsers) {
		t.Errorf("users = %d, want %d", got.Users(), len(wantUsers))
	}
	got.EachUser(func(u *pipeline.UserRecord) {
		if w, ok := wantUsers[u.ID]; !ok || *u != w {
			t.Errorf("user %d = %+v, want %+v (present %v)", u.ID, *u, w, ok)
		}
	})
}

// TestMergeMigratesShardCheckpoints: `donorsense merge -out` turns the
// <base>-shard-<i> files of an earlier sharded run into one checkpoint,
// and collect -checkpoint resumes from it. Here the shard files hold a
// user-id partition of the first half of the corpus, and the collect
// streams the second half; the result must equal one sequential fold of
// the whole corpus.
func TestMergeMigratesShardCheckpoints(t *testing.T) {
	corpus := matchedCorpus()
	half := len(corpus) / 2
	dir := t.TempDir()
	base := filepath.Join(dir, "state.ckpt")

	const shards = 3
	parts := make([][]twitter.Tweet, shards)
	for _, tw := range corpus[:half] {
		i := uint64(tw.User.ID) % shards
		parts[i] = append(parts[i], tw)
	}
	for i, part := range parts {
		if err := processAll(part).SaveCheckpoint(pipeline.ShardCheckpointPath(base, i)); err != nil {
			t.Fatal(err)
		}
	}

	merged := filepath.Join(dir, "merged.ckpt")
	if err := cmdMerge([]string{"-checkpoint", base, "-out", merged, "-no-analyze"}); err != nil {
		t.Fatalf("merge: %v", err)
	}

	srv := httptest.NewServer(twitter.NewReplayServer(corpus[half:], twitter.ReplayConfig{}).Handler())
	defer srv.Close()
	captureStdout(t, func() error {
		return cmdCollect(collectArgs(srv.URL, "-progress-every", "0", "-checkpoint", merged))
	})

	got, err := pipeline.LoadCheckpoint(merged)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, got, processAll(corpus))
}

func TestMergeSubcommandErrors(t *testing.T) {
	if err := cmdMerge([]string{}); err == nil {
		t.Error("merge without -checkpoint must error")
	}
	base := filepath.Join(t.TempDir(), "none.ckpt")
	if err := cmdMerge([]string{"-checkpoint", base}); err == nil {
		t.Error("merge with no shard checkpoint files must error")
	}
}
