package report

import (
	"sort"
	"testing"

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
