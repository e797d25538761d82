package pipeline

import (
	"slices"
	"testing"
)

// TestDrainDeltaOffersTopCandidates: DrainDelta keeps no candidates
// before a ranking is built; after, it keeps exactly the drained rows
// whose total is nonzero and at least Kth; and a candidate list past its
// bound drops the ranking, so the next TopMentioners call rebuilds.
func TestDrainDeltaOffersTopCandidates(t *testing.T) {
	const users = 6000
	d := SynthDataset(users, 5)
	d.EnableDeltaTracking()
	d.store.MarkDirty(3)
	d.DrainDelta()
	if len(d.top.Cands) != 0 {
		t.Fatalf("%d candidates kept without a ranking", len(d.top.Cands))
	}

	d.top = TopRanking{K: 10, Kth: 3}
	var want []uint32
	for row := uint32(0); row < users; row += 7 {
		d.store.MarkDirty(int32(row))
		if d.mentionTotal(row) >= 3 {
			want = append(want, row)
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture: no row reaches Kth")
	}
	d.DrainDelta()
	if !slices.Equal(d.top.Cands, want) {
		t.Fatalf("kept %d candidates %v, want %d", len(d.top.Cands), d.top.Cands, len(want))
	}

	// Every SynthDataset row mentions an organ, so with Kth 0 each is
	// kept: 6000 candidates outgrow the bound of a size-1 ranking.
	d.top = TopRanking{K: 1}
	for row := int32(0); row < users; row++ {
		d.store.MarkDirty(row)
	}
	d.DrainDelta()
	if d.top.K != 0 || len(d.top.Cands) != 0 {
		t.Fatalf("ranking kept (K=%d, %d candidates) past the bound", d.top.K, len(d.top.Cands))
	}
}
