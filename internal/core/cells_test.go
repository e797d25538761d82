package core

import (
	"math/rand"
	"reflect"
	"testing"

	"donorsense/internal/geo"
	"donorsense/internal/organ"
)

// randomCellsAttention builds a small attention matrix plus each random
// user's state and mention mask.
func randomCellsAttention(t *testing.T, rng *rand.Rand, n int) (*Attention, map[int64]string, map[int64]uint8) {
	t.Helper()
	codes := geo.StateCodes()
	states := map[int64]string{}
	masks := map[int64]uint8{}
	ids := make([]int64, 0, n)
	counts := make([]int32, 0, n*organ.Count)
	for i := 0; i < n; i++ {
		id := int64(i + 1)
		ids = append(ids, id)
		mask := uint8(0)
		row := make([]int32, organ.Count)
		for j := 0; j < organ.Count; j++ {
			if rng.Intn(3) == 0 {
				row[j] = int32(rng.Intn(4) + 1)
				mask |= 1 << j
			}
		}
		if mask == 0 {
			j := rng.Intn(organ.Count)
			row[j] = 1
			mask = 1 << j
		}
		counts = append(counts, row...)
		states[id] = codes[rng.Intn(len(codes))]
		masks[id] = mask
	}
	a, err := AttentionFromCounts(ids, counts)
	if err != nil {
		t.Fatal(err)
	}
	return a, states, masks
}

// TestCellsMatchFullScan asserts an accumulator fed (state, mask) pairs
// produces results identical to one scan over Û, including after
// merge-sharded accumulation in shuffled order.
func TestCellsMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, states, masks := randomCellsAttention(t, rng, 300)

	scan := cellsOf(a, states)
	wantH, err := scan.Highlight()
	if err != nil {
		t.Fatal(err)
	}
	wantW, err := scan.WinnerTakesAll()
	if err != nil {
		t.Fatal(err)
	}

	// Shard the users, accumulate per shard, merge shuffled.
	const shards = 3
	parts := make([]*StateOrganCells, shards)
	for i := range parts {
		parts[i] = NewStateOrganCells()
	}
	for id, mask := range masks {
		parts[rng.Intn(shards)].AddUser(geo.StateIndex(states[id]), mask, 1)
	}
	merged := NewStateOrganCells()
	for _, i := range rng.Perm(shards) {
		if err := merged.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	gotH, err := merged.Highlight()
	if err != nil {
		t.Fatal(err)
	}
	gotW, err := merged.WinnerTakesAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotH, wantH) {
		t.Fatal("merged accumulator highlight differs from full scan")
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Fatal("merged accumulator winner-takes-all differs from full scan")
	}
}

// TestCellsIncrementDecrementRoundTrip is the table-driven audit of the
// sparse-cell RR paths under incremental updates: admit a user, build
// the analysis, reverse the admission, and require the result to be
// byte-identical to the analysis that never saw the user — including
// cells that transit through zero, which must surface the continuity
// estimate while passing through, not error.
func TestCellsIncrementDecrementRoundTrip(t *testing.T) {
	base := func() *StateOrganCells {
		c := NewStateOrganCells()
		// Two states, modest counts; organ 0 mentioned only in OH.
		oh, ca := geo.StateIndex("OH"), geo.StateIndex("CA")
		for i := 0; i < 4; i++ {
			c.AddUser(oh, 0b000001, 1)
		}
		for i := 0; i < 6; i++ {
			c.AddUser(ca, 0b000010, 1)
		}
		return c
	}
	cases := []struct {
		name  string
		state string
		mask  uint8
	}{
		{"new organ in CA", "CA", 0b000001},
		{"multi-organ user in OH", "OH", 0b000111},
		{"third state", "TX", 0b100010},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			before, err := c.Highlight()
			if err != nil {
				t.Fatal(err)
			}
			beforeW, err := c.WinnerTakesAll()
			if err != nil {
				t.Fatal(err)
			}
			s := geo.StateIndex(tc.state)
			c.AddUser(s, tc.mask, 1)
			if _, err := c.Highlight(); err != nil {
				t.Fatalf("highlight after increment: %v", err)
			}
			c.AddUser(s, tc.mask, -1)
			after, err := c.Highlight()
			if err != nil {
				t.Fatal(err)
			}
			afterW, err := c.WinnerTakesAll()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, before) {
				t.Fatal("increment→decrement did not round-trip the highlight result")
			}
			if !reflect.DeepEqual(afterW, beforeW) {
				t.Fatal("increment→decrement did not round-trip winner-takes-all")
			}
		})
	}
}

// TestCellsZeroCellContinuity pins the decrement-to-zero behavior: when
// the only user mentioning an organ inside a state is removed, the
// (state, organ) cell's uncorrected RR becomes undefined but the
// continuity estimate is populated — no error, no highlight.
func TestCellsZeroCellContinuity(t *testing.T) {
	c := NewStateOrganCells()
	oh, ca := geo.StateIndex("OH"), geo.StateIndex("CA")
	heart := organ.Organ(1)
	// OH: one user mentioning organs 0+1, three mentioning only 0.
	c.AddUser(oh, 0b000011, 1)
	for i := 0; i < 3; i++ {
		c.AddUser(oh, 0b000001, 1)
	}
	// CA: users mentioning organ 1, so the outside column is nonzero.
	for i := 0; i < 5; i++ {
		c.AddUser(ca, 0b000010, 1)
	}

	h, err := c.Highlight()
	if err != nil {
		t.Fatal(err)
	}
	cell := h.Risks[oh][heart.Index()]
	if !cell.Defined {
		t.Fatalf("cell defined=false before decrement: %+v", cell)
	}

	// The lone OH heart-mentioner deletes their tweets: a 1 → 0.
	c.AddUser(oh, 0b000011, -1)
	c.AddUser(oh, 0b000001, 1) // still a user, now kidney-only

	h, err = c.Highlight()
	if err != nil {
		t.Fatalf("highlight with zero cell errored: %v", err)
	}
	cell = h.Risks[oh][heart.Index()]
	if cell.Defined {
		t.Fatalf("zero cell stayed defined: %+v", cell)
	}
	if cell.Highlighted() {
		t.Fatal("zero cell highlighted")
	}
	if !cell.ContinuityDefined {
		t.Fatal("zero cell missing continuity estimate")
	}
	if cell.Continuity.A != 0 || cell.Continuity.RR <= 0 {
		t.Fatalf("continuity estimate malformed: %+v", cell.Continuity)
	}

	// MentionAccum round-trips the same transition.
	var m MentionAccum
	m.AddMask(0b000011, 1)
	m.AddMask(0b000011, -1)
	m.AddMask(0b000001, 1)
	if got := m.UsersPerOrgan(); got[0] != 1 || got[1] != 0 {
		t.Fatalf("UsersPerOrgan after round-trip: %v", got)
	}
	if got := m.MultiOrganUsers(); got[0] != 1 || got[1] != 0 {
		t.Fatalf("MultiOrganUsers after round-trip: %v", got)
	}
	if m.DistinctPairs != 1 {
		t.Fatalf("DistinctPairs = %d", m.DistinctPairs)
	}
}
