package report

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
)

// topOracle is the brute-force reference: snapshot every user, full sort,
// cut to max.
func topOracle(d *pipeline.Dataset, max int) []TopUser {
	var all []TopUser
	for row := 0; row < d.Users(); row++ {
		id, code, ments := d.UserAt(uint32(row))
		u := TopUser{ID: id, State: code}
		copy(u.Mentions[:], ments)
		for _, m := range ments {
			u.Total += int64(m)
		}
		if u.Total == 0 {
			continue
		}
		all = append(all, u)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Total != all[j].Total {
			return all[i].Total > all[j].Total
		}
		return all[i].ID < all[j].ID
	})
	if max < len(all) {
		all = all[:max]
	}
	return all
}

func TestTopMentionersMatchesFullSort(t *testing.T) {
	d := pipeline.SynthDataset(5000, 7)
	for _, max := range []int{1, 10, 100, 4999, 5000, 10000} {
		got := TopMentioners(d, max)
		want := topOracle(d, max)
		if len(got) != len(want) {
			t.Fatalf("max=%d: got %d users, want %d", max, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("max=%d: rank %d = %+v, want %+v", max, i, got[i], want[i])
			}
		}
	}
}

func TestTopMentionersEdgeCases(t *testing.T) {
	d := pipeline.SynthDataset(100, 3)
	if got := TopMentioners(d, 0); got != nil {
		t.Errorf("max=0 returned %d users, want nil", len(got))
	}
	if got := TopMentioners(pipeline.NewDataset(), 10); got != nil {
		t.Errorf("empty dataset returned %d users, want nil", len(got))
	}
	// Ordering within the result is strictly descending (total, then id).
	top := TopMentioners(d, 100)
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		if a.Total < b.Total || (a.Total == b.Total && a.ID > b.ID) {
			t.Fatalf("rank %d out of order: %+v before %+v", i, a, b)
		}
	}
}

func TestTopUserPrimary(t *testing.T) {
	u := TopUser{Mentions: [organ.Count]int32{1, 5, 5, 0, 0, 0}}
	if got := u.Primary(); got != organ.Organ(1) {
		t.Errorf("Primary tie = %v, want index 1 (lowest tied index)", got)
	}
}

// TestTopMentionersColumnScanOracle pins the column scan against the
// full-sort oracle on the cases its root-total shortcut must get right:
// rows with zero mentions (skipped), long runs of equal totals (ranked by
// ascending id, including at the heap-root boundary), and max beyond the
// user count. The fixture writes the mention column directly to plant
// zero rows and ties, which ingest alone rarely produces.
func TestTopMentionersColumnScanOracle(t *testing.T) {
	d := pipeline.SynthDataset(3000, 11)
	ments := d.Mentions()
	for row := 0; row < d.Users(); row++ {
		m := ments[row*organ.Count : (row+1)*organ.Count]
		switch {
		case row%7 == 0: // zero-mention user
			clear(m)
		case row%5 == 3: // a large block tied at total 9
			clear(m)
			m[row%organ.Count], m[(row+1)%organ.Count] = 4, 5
		case row%11 == 1: // a second tie group above it
			clear(m)
			m[0] = 12
		}
	}
	for _, max := range []int{1, 2, 5, 50, 200, 300, 600, 2999, 3000, 5000} {
		got := TopMentioners(d, max)
		want := topOracle(d, max)
		if len(got) != len(want) {
			t.Fatalf("max=%d: got %d users, want %d", max, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("max=%d: rank %d = %+v, want %+v", max, i, got[i], want[i])
			}
		}
	}
	zero := 0
	for _, u := range TopMentioners(d, d.Users()) {
		if u.Total == 0 {
			zero++
		}
	}
	if zero != 0 {
		t.Fatalf("%d zero-mention users ranked", zero)
	}
}

// TestTopMentionersMaintainedMatchesOracle is the differential for the
// maintained ranking: it folds a generated corpus into a tracked dataset
// chunk by chunk, refreshing after only some chunks (and sometimes
// folding again after the refresh), so both drained candidates and
// undrained dirty rows reach TopMentioners. After every chunk it checks
// a mix of max values against topOracle: the ranking's own size, a
// prefix of it, a larger max (a rebuild), and a max beyond the user
// count. Along the way it covers an engine error-reset followed by a
// cold refresh, a Merge into the tracked dataset (one ranked user also
// changes state), and a checkpoint save and reload.
func TestTopMentionersMaintainedMatchesOracle(t *testing.T) {
	tweets := gen.Generate(gen.DefaultConfig(0.05)).Tweets
	cfg := engineTestConfig()
	d := pipeline.NewDataset()
	e := NewEngine(d, cfg)
	if _, err := e.Refresh(); err == nil {
		t.Fatal("refresh of an empty dataset succeeded")
	}
	refresh := func() {
		t.Helper()
		if _, err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
	}

	checks := 0
	check := func(stage string, maxes ...int) {
		t.Helper()
		for _, max := range maxes {
			got, want := TopMentioners(d, max), topOracle(d, max)
			if len(got) != len(want) {
				t.Fatalf("%s, max=%d: got %d users, want %d", stage, max, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, max=%d: rank %d = %+v, want %+v", stage, max, i, got[i], want[i])
				}
			}
			checks += len(got) + 1
		}
	}

	held := tweets[len(tweets)*9/10:]
	main := tweets[:len(tweets)*9/10]
	const chunks = 16
	k := 0
	for c := 0; c < chunks; c++ {
		chunk := main[c*len(main)/chunks : (c+1)*len(main)/chunks]
		half := len(chunk) / 2
		for _, tw := range chunk[:half] {
			d.Process(tw)
		}
		if c%3 != 1 {
			refresh()
		}
		if c%2 == 0 {
			for _, tw := range chunk[half:] {
				d.Process(tw)
			}
		}
		stage := fmt.Sprintf("chunk %d", c)
		switch c {
		case 0:
			// Beyond the user count: the ranking holds every mentioning
			// user until the store outgrows it.
			k = d.Users() + 10
			check(stage, k, 3)
		case 3, 12:
			// Larger than any max before: a rebuild.
			k *= 2
			check(stage, k/2, k, 1)
		case 5, 10:
			// Stands in for a failed refresh, which resets the engine;
			// the next refresh is a cold build that still drains the
			// delta through the dataset.
			e.reset()
			refresh()
			if e.Epoch() != 0 {
				t.Fatalf("refresh after the reset was not cold (epoch %d)", e.Epoch())
			}
			check(stage, k, k/4)
		case 8:
			// A reloaded dataset starts without a ranking, so from here
			// on the ranking is small against the user count.
			k = 25
			before := TopMentioners(d, k)
			var buf bytes.Buffer
			if err := d.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			var err error
			if d, err = pipeline.ReadCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			e = NewEngine(d, cfg)
			if after := TopMentioners(d, k); !slices.Equal(after, before) {
				t.Fatal("the reloaded dataset ranks differently")
			}
			refresh()
			check(stage+" reloaded", k, k/2)
		case 13:
			shard := pipeline.NewDataset()
			for _, tw := range held {
				shard.Process(tw)
			}
			d.Merge(shard)
			// Move a ranked user to another state: the served row must
			// show it.
			u, _ := d.LookupUser(TopMentioners(d, k)[k/2].ID)
			switched, switchedID, state := stateSwitchShardFor(t, u, 1<<61)
			d.Merge(switched)
			check(stage+" merged, undrained", k, 5)
			refresh()
			check(stage+" merged, drained", k, 5)
			if u, _ := d.LookupUser(switchedID); u.StateCode != state {
				t.Fatalf("merge left user %d in %s, want %s", switchedID, u.StateCode, state)
			}
		default:
			check(stage, k, k/4, 1)
		}
	}
	if k >= d.Users() {
		t.Fatalf("fixture: the ranking (%d) never filled; %d users", k, d.Users())
	}
	t.Logf("%d checks over %d users, top %d", checks, d.Users(), k)
}
