package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tableIEqual compares every Table I statistic bit-for-bit.
func tableIEqual(a, b TableI) bool {
	return a.Start.Equal(b.Start) && a.End.Equal(b.End) &&
		a.Days == b.Days &&
		a.TweetsCollected == b.TweetsCollected &&
		a.TotalCollected == b.TotalCollected &&
		a.Users == b.Users &&
		a.AvgTweetsPerDay == b.AvgTweetsPerDay &&
		a.AvgTweetsPerUser == b.AvgTweetsPerUser &&
		a.OrgansPerTweet == b.OrgansPerTweet &&
		a.OrgansPerUser == b.OrgansPerUser &&
		a.GeoTagRate == b.GeoTagRate
}

// assertDatasetsEqual checks every statistic the paper reports.
func assertDatasetsEqual(t *testing.T, got, want *Dataset) {
	t.Helper()
	if !tableIEqual(got.Stats(), want.Stats()) {
		t.Errorf("Table I mismatch:\n got %+v\nwant %+v", got.Stats(), want.Stats())
	}
	if got.UsersPerOrgan() != want.UsersPerOrgan() {
		t.Errorf("Figure 2(a) mismatch: %v vs %v", got.UsersPerOrgan(), want.UsersPerOrgan())
	}
	gt, gu := got.MultiOrganHistogram()
	wt, wu := want.MultiOrganHistogram()
	if gt != wt || gu != wu {
		t.Errorf("Figure 2(b) mismatch: (%v,%v) vs (%v,%v)", gt, gu, wt, wu)
	}
	if !reflect.DeepEqual(stateMap(got), stateMap(want)) {
		t.Error("user → state map mismatch")
	}
}

func TestCheckpointCrashRestartIdentical(t *testing.T) {
	// Simulated crash/restart at an arbitrary mid-stream point: process a
	// prefix, checkpoint, "crash" (discard the dataset), reload from the
	// snapshot file, process the suffix. The statistics must be
	// bit-identical to an uninterrupted run.
	tweets := sharedCorpus.Tweets
	for _, cut := range []int{0, 1, len(tweets) / 3, len(tweets) / 2, len(tweets)} {
		path := filepath.Join(t.TempDir(), "state.ckpt")

		d1 := NewDataset()
		for _, tw := range tweets[:cut] {
			d1.Process(tw)
		}
		if err := d1.SaveCheckpoint(path); err != nil {
			t.Fatalf("cut %d: save: %v", cut, err)
		}
		d1 = nil // the crash

		d2, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("cut %d: load: %v", cut, err)
		}
		for _, tw := range tweets[cut:] {
			d2.Process(tw)
		}
		assertDatasetsEqual(t, d2, sharedDataset)
	}
}

func TestCheckpointPreservesDeletionTracking(t *testing.T) {
	d := NewDataset()
	d.TrackDeletions()
	var retainedID int64
	for _, tw := range sharedCorpus.Tweets[:2000] {
		if d.Process(tw) == CollectedUS {
			retainedID = tw.ID
		}
	}
	if retainedID == 0 {
		t.Skip("no US tweet in prefix")
	}
	var buf bytes.Buffer
	if err := d.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.DeletionTrackingEnabled() {
		t.Fatal("deletion tracking lost across checkpoint")
	}
	before := d2.USTweets()
	if !d2.Delete(retainedID) {
		t.Error("restored dataset lost a contribution record")
	}
	if d2.USTweets() != before-1 {
		t.Errorf("Delete after restore: usTweets %d, want %d", d2.USTweets(), before-1)
	}
	if d2.Delete(-12345) {
		t.Error("unknown status reported as deleted")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	d := NewDataset()
	for _, tw := range sharedCorpus.Tweets[:1000] {
		d.Process(tw)
	}
	var buf bytes.Buffer
	if err := d.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:10],
		"torn payload": good[:len(good)-7],
		"bad magic":    append([]byte("NOTADSCK"), good[8:]...),
		"flipped byte": flipByte(good, len(good)-3),
		"flipped crc":  flipByte(good, 16),
	}
	for name, data := range cases {
		if _, err := ReadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want ErrCheckpointCorrupt", name, err)
		}
	}

	// A future version must be refused, but not as "corrupt".
	futur := append([]byte(nil), good...)
	futur[7] = checkpointVersion + 1
	if _, err := ReadCheckpoint(bytes.NewReader(futur)); err == nil || errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("future version: err = %v, want version error", err)
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

func TestSaveCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")

	d := NewDataset()
	for _, tw := range sharedCorpus.Tweets[:500] {
		d.Process(tw)
	}
	if err := d.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	want := d.Stats()

	// A "crash during save" leaves a stray temp file at worst; the
	// published snapshot must stay intact and no temp files must survive
	// a completed save.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %s survived a completed save", e.Name())
		}
	}

	// Overwrite with a second save mid-run; the file must never be torn:
	// simulate the crash by planting a half-written temp file, then
	// verify loads keep reading the last published snapshot.
	if err := os.WriteFile(path+".tmp-crashed", []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tw := range sharedCorpus.Tweets[500:800] {
		d.Process(tw)
	}
	if err := d.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	want = d.Stats()

	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load after simulated crash: %v", err)
	}
	if !tableIEqual(got.Stats(), want) {
		t.Errorf("snapshot stats %+v, want %+v", got.Stats(), want)
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !os.IsNotExist(err) {
		t.Errorf("err = %v, want not-exist", err)
	}
}

// corruptFile flips one payload byte in place so the checksum fails.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipByte(data, len(data)-3), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSaveCheckpointKeepsBackup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")

	d := NewDataset()
	for _, tw := range sharedCorpus.Tweets[:500] {
		d.Process(tw)
	}
	if err := d.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	firstStats := d.Stats()

	for _, tw := range sharedCorpus.Tweets[500:900] {
		d.Process(tw)
	}
	if err := d.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	// The backup must be the previous snapshot, verbatim.
	bak, err := LoadCheckpoint(CheckpointBackupPath(path))
	if err != nil {
		t.Fatalf("load backup: %v", err)
	}
	if !tableIEqual(bak.Stats(), firstStats) {
		t.Errorf("backup stats %+v, want first snapshot's %+v", bak.Stats(), firstStats)
	}

	// With an intact primary the fallback path must not engage.
	got, usedBackup, err := LoadCheckpointFallback(path)
	if err != nil {
		t.Fatal(err)
	}
	if usedBackup {
		t.Error("fallback engaged with an intact primary")
	}
	if !tableIEqual(got.Stats(), d.Stats()) {
		t.Errorf("primary stats %+v, want %+v", got.Stats(), d.Stats())
	}
}

func TestLoadCheckpointFallsBackToBackup(t *testing.T) {
	d := NewDataset()
	for _, tw := range sharedCorpus.Tweets[:500] {
		d.Process(tw)
	}
	firstStats := d.Stats()

	// Corrupt primary → backup wins, and the caller is told.
	t.Run("corrupt primary", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.ckpt")
		if err := d.SaveCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		if err := d.SaveCheckpoint(path); err != nil { // rotates the backup
			t.Fatal(err)
		}
		corruptFile(t, path)
		got, usedBackup, err := LoadCheckpointFallback(path)
		if err != nil {
			t.Fatalf("fallback load: %v", err)
		}
		if !usedBackup {
			t.Error("usedBackup = false after corrupt primary")
		}
		if !tableIEqual(got.Stats(), firstStats) {
			t.Errorf("restored stats %+v, want backup's %+v", got.Stats(), firstStats)
		}
	})

	// Primary missing but backup present — the window between the two
	// renames of a crashed save.
	t.Run("missing primary", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.ckpt")
		if err := d.SaveCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		if err := d.SaveCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		got, usedBackup, err := LoadCheckpointFallback(path)
		if err != nil {
			t.Fatalf("fallback load: %v", err)
		}
		if !usedBackup {
			t.Error("usedBackup = false with a missing primary")
		}
		if !tableIEqual(got.Stats(), firstStats) {
			t.Errorf("restored stats %+v, want backup's %+v", got.Stats(), firstStats)
		}
	})

	// Both corrupt: fail loudly with the primary's corruption error.
	t.Run("both corrupt", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "state.ckpt")
		if err := d.SaveCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		if err := d.SaveCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		corruptFile(t, path)
		corruptFile(t, CheckpointBackupPath(path))
		if _, _, err := LoadCheckpointFallback(path); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("err = %v, want ErrCheckpointCorrupt", err)
		}
	})
}

// TestSyncDir pins the directory-fsync helper the publish rename relies
// on: it must succeed on a real directory and report a missing one.
func TestSyncDir(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Errorf("syncDir(%s): %v", dir, err)
	}
	if err := syncDir(filepath.Join(dir, "nope")); !os.IsNotExist(err) {
		t.Errorf("syncDir(missing) = %v, want not-exist", err)
	}
	// A save into a fresh directory must leave primary (+ no temp files)
	// durably published.
	d := NewDataset()
	for _, tw := range sharedCorpus.Tweets[:200] {
		d.Process(tw)
	}
	path := filepath.Join(dir, "state.ckpt")
	if err := d.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
