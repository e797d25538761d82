package pipeline

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
	if g, w := usersPerOrgan(got), usersPerOrgan(want); g != w {
		t.Errorf("Figure 2(a) mismatch: %v vs %v", g, w)
	}
	gt, gu := got.TweetOrganHistogram(), userOrganHistogram(got)
	wt, wu := want.TweetOrganHistogram(), userOrganHistogram(want)
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

	// A future version, the retired v2 map format and the retired v3
	// columns without analytics must be refused as unsupported, not as
	// "corrupt": a version mismatch is a deployment problem, so the loader
	// must not fall back to an older .bak either.
	for _, version := range []byte{2, 3, checkpointVersion + 1} {
		other := append([]byte(nil), good...)
		other[7] = version
		if _, err := ReadCheckpoint(bytes.NewReader(other)); err == nil ||
			errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "not supported") {
			t.Errorf("version %d: err = %v, want a not-supported error", version, err)
		}
		path := filepath.Join(t.TempDir(), "state.ckpt")
		if err := d.SaveCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path, CheckpointBackupPath(path)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, other, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, usedBackup, err := LoadCheckpointFallback(path); err == nil || usedBackup ||
			!strings.Contains(err.Error(), "not supported") {
			t.Errorf("version %d: load err = %v, usedBackup = %v; want a not-supported error and no fallback",
				version, err, usedBackup)
		}
	}
}

// TestReadCheckpointAllocationBoundedByInput: a torn 20-byte file whose
// header claims a 4 GiB payload is corrupt, and reading it allocates
// about what the file holds, not what the header claims.
func TestReadCheckpointAllocationBoundedByInput(t *testing.T) {
	hdr := make([]byte, 20)
	copy(hdr, checkpointMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:16], 1<<32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCheckpoint(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("err = %v, want ErrCheckpointCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reading a 20-byte file allocated %d bytes", alloc)
	}
}

// FuzzReadCheckpoint: any input either loads or is refused with an error
// — never a panic — and allocation stays bounded by the input's size.
// The seeds are a valid v5 snapshot carrying an analytics blob and a
// top-mentioner ranking, truncations of it, and a v4 snapshot.
func FuzzReadCheckpoint(f *testing.F) {
	d := NewDataset()
	for _, tw := range sharedCorpus.Tweets[:300] {
		d.Process(tw)
	}
	d.SetAnalyticsState([]byte("warm blob"))
	d.top = rankTop(d, 3)
	var buf bytes.Buffer
	if err := d.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	for _, n := range []int{len(good), len(good) - 1, len(good) / 2, 21, 20, 19, 8, 0} {
		f.Add(good[:n])
	}
	var v4 bytes.Buffer
	writeLegacyCheckpoint(f, legacyWire(d), checkpointVersionV4, &v4)
	f.Add(v4.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadCheckpoint(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if (got == nil) == (err == nil) {
			t.Fatalf("dataset %v with error %v", got != nil, err)
		}
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(256<<10+64*len(data)); alloc > bound {
			t.Fatalf("%d-byte input allocated %d bytes, bound %d", len(data), alloc, bound)
		}
	})
}

// rankTop is the ranking TopMentioners keeps after ranking the top k of
// d: rows by descending mention total, then ascending id.
func rankTop(d *Dataset, k int) TopRanking {
	var rows []uint32
	for row := uint32(0); row < uint32(d.Users()); row++ {
		if d.mentionTotal(row) > 0 {
			rows = append(rows, row)
		}
	}
	slices.SortFunc(rows, func(a, b uint32) int {
		if c := cmp.Compare(d.mentionTotal(b), d.mentionTotal(a)); c != 0 {
			return c
		}
		return cmp.Compare(d.store.ID(int32(a)), d.store.ID(int32(b)))
	})
	r := TopRanking{K: k, Rows: rows[:min(k, len(rows))]}
	if len(r.Rows) == k {
		r.Kth = d.mentionTotal(r.Rows[k-1])
	}
	return r
}

// TestCheckpointCarriesRanking: a saved top-mentioner ranking reloads
// with the rows changed since the last drain among its candidates, and
// the reloaded store tracks its changes; a ranking that fails validation
// is dropped instead.
func TestCheckpointCarriesRanking(t *testing.T) {
	d := NewDataset()
	for _, tw := range sharedCorpus.Tweets[:2000] {
		d.Process(tw)
	}
	d.EnableDeltaTracking()
	d.top = rankTop(d, 5)
	for _, tw := range sharedCorpus.Tweets[2000:2300] {
		d.Process(tw)
	}
	reload := func(r TopRanking) *Dataset {
		t.Helper()
		d.top = r
		var buf bytes.Buffer
		if err := d.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	good := d.top
	got := reload(good)
	if r := got.TopRanking(); r.K != good.K || r.Kth != good.Kth || !slices.Equal(r.Rows, good.Rows) {
		t.Fatalf("ranking reloaded as %+v, want %+v", *r, good)
	}
	var dirty []uint32
	d.EachDirty(func(row uint32) {
		if tot := d.mentionTotal(row); tot > 0 && tot >= good.Kth {
			dirty = append(dirty, row)
		}
	})
	if len(dirty) == 0 {
		t.Fatal("fixture: no undrained row reaches the ranking")
	}
	if !slices.Equal(got.TopRanking().Cands, dirty) {
		t.Errorf("reloaded candidates %v, want the undrained rows %v", got.TopRanking().Cands, dirty)
	}
	if !got.DeltaTracking() {
		t.Error("a store reloaded with a ranking does not track its changes")
	}

	// Rows grow after a ranking: a kept row above the K-th total is
	// still a valid ranking.
	grown := good
	grown.Kth = d.mentionTotal(good.Rows[good.K-1]) - 1
	if got := reload(grown); got.TopRanking().K != good.K {
		t.Error("a ranking whose K-th row has grown since was dropped")
	}

	n := uint32(d.Users())
	broken := map[string]func(r *TopRanking){
		"row out of range":        func(r *TopRanking) { r.Rows[1] = n },
		"repeated row":            func(r *TopRanking) { r.Rows[2] = r.Rows[0] },
		"K below the rows":        func(r *TopRanking) { r.K = len(r.Rows) - 1 },
		"candidate out of range":  func(r *TopRanking) { r.Cands = []uint32{n + 7} },
		"Kth above a row's total": func(r *TopRanking) { r.Kth = 1 << 40 },
		"Kth of a short ranking":  func(r *TopRanking) { r.K++ },
	}
	for name, breakIt := range broken {
		r := good
		r.Rows = slices.Clone(good.Rows)
		breakIt(&r)
		got := reload(r)
		if got.TopRanking().K != 0 || got.DeltaTracking() {
			t.Errorf("%s: the ranking was kept", name)
		}
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
