package userstore

import (
	"math/rand"
	"slices"
	"testing"
)

// shadowRec is the oracle's copy of one user's mutable data.
type shadowRec struct {
	tweets, clinical, hashtags int32
	mentions                   [3]int32
	state                      string
	flags                      uint8
	firstSeen, firstTweetID    int64
}

// TestDeltaOracle drives a store through randomized insert / count /
// mention / identity sequences against a brute-force shadow map,
// draining at random points and asserting the delta contract: every
// user the oracle saw touched since the last drain sits at a marked
// row, no bit indexes past Len(), and the drain resets.
func TestDeltaOracle(t *testing.T) {
	const nCols = 3
	rng := rand.New(rand.NewSource(909))
	states := []string{"OH", "CA", "NY", "TX"}

	s := New(nCols)
	s.EnableDeltaTracking()

	shadow := map[int64]*shadowRec{}
	touched := map[int64]bool{} // ids mutated since last drain

	drain := func() {
		// EachDirty names, without draining, the rows the drain returns.
		var peeked []uint32
		s.EachDirty(func(row uint32) { peeked = append(peeked, row) })
		d := s.DrainDelta()
		var drained []uint32
		d.Rows.Each(func(row uint32) { drained = append(drained, row) })
		if !slices.Equal(peeked, drained) {
			t.Fatalf("EachDirty named rows %v, the drain %v", peeked, drained)
		}
		// Every marked row is in range.
		d.Rows.Each(func(b uint32) {
			if int(b) >= s.Len() {
				t.Fatalf("dirty bit %d past Len %d", b, s.Len())
			}
		})
		// Every touched user sits at a marked row with values matching
		// the shadow.
		for id := range touched {
			rec := shadow[id]
			row, ok := s.Find(id)
			if !ok {
				t.Fatalf("touched id %d missing from store", id)
			}
			if !d.Rows.Test(uint32(row)) {
				t.Fatalf("touched id %d at row %d not marked dirty", id, row)
			}
			checkRow(t, s, row, id, rec)
		}
		if s.DirtyRows() != 0 {
			t.Fatalf("DirtyRows %d after drain", s.DirtyRows())
		}
		if !s.DrainDelta().Empty() {
			t.Fatal("second drain not empty")
		}
		touched = map[int64]bool{}
	}

	liveIDs := func() []int64 {
		ids := make([]int64, 0, len(shadow))
		for id := range shadow {
			ids = append(ids, id)
		}
		return ids
	}

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // insert a new id
			id := int64(rng.Intn(400) + 1)
			if _, ok := shadow[id]; ok {
				break
			}
			st := states[rng.Intn(len(states))]
			fs, ft := rng.Int63n(1000), rng.Int63n(1000)
			fl := uint8(rng.Intn(2))
			s.Insert(id, st, fl, fs, ft)
			shadow[id] = &shadowRec{state: st, flags: fl, firstSeen: fs, firstTweetID: ft}
			touched[id] = true
		case op < 75: // count + mention update
			ids := liveIDs()
			if len(ids) == 0 {
				break
			}
			id := ids[rng.Intn(len(ids))]
			row, _ := s.Find(id)
			dt, dc, dh := int32(rng.Intn(3)), int32(rng.Intn(2)), int32(rng.Intn(2))
			s.AddCounts(row, dt, dc, dh)
			col := rng.Intn(nCols)
			s.MentionsRow(row)[col]++
			s.MarkDirty(row)
			rec := shadow[id]
			rec.tweets += dt
			rec.clinical += dc
			rec.hashtags += dh
			rec.mentions[col]++
			touched[id] = true
		case op < 92: // identity rewrite
			ids := liveIDs()
			if len(ids) == 0 {
				break
			}
			id := ids[rng.Intn(len(ids))]
			row, _ := s.Find(id)
			st := states[rng.Intn(len(states))]
			fs, ft := rng.Int63n(1000), rng.Int63n(1000)
			fl := uint8(rng.Intn(2))
			s.SetIdentity(row, st, fl, fs, ft)
			rec := shadow[id]
			rec.state, rec.flags, rec.firstSeen, rec.firstTweetID = st, fl, fs, ft
			touched[id] = true
		default:
			drain()
		}
	}
	drain()

	// Final integrity sweep: store equals shadow exactly.
	if s.Len() != len(shadow) {
		t.Fatalf("Len %d, shadow %d", s.Len(), len(shadow))
	}
	for id, rec := range shadow {
		row, ok := s.Find(id)
		if !ok {
			t.Fatalf("id %d missing", id)
		}
		checkRow(t, s, row, id, rec)
	}
}

func checkRow(t *testing.T, s *Store, row int32, id int64, rec *shadowRec) {
	t.Helper()
	if s.ID(row) != id {
		t.Fatalf("row %d id %d want %d", row, s.ID(row), id)
	}
	if s.Tweets(row) != rec.tweets || s.Clinical(row) != rec.clinical || s.Hashtags(row) != rec.hashtags {
		t.Fatalf("id %d counters (%d,%d,%d) want (%d,%d,%d)", id,
			s.Tweets(row), s.Clinical(row), s.Hashtags(row), rec.tweets, rec.clinical, rec.hashtags)
	}
	for c, v := range s.MentionsRow(row) {
		if v != rec.mentions[c] {
			t.Fatalf("id %d mention col %d = %d want %d", id, c, v, rec.mentions[c])
		}
	}
	if s.StateCode(row) != rec.state || s.Flags(row) != rec.flags ||
		s.FirstSeen(row) != rec.firstSeen || s.FirstTweetID(row) != rec.firstTweetID {
		t.Fatalf("id %d identity mismatch", id)
	}
}

// TestDeltaDisabled asserts the default store pays no tracking cost and
// reports empty deltas.
func TestDeltaDisabled(t *testing.T) {
	s := New(2)
	row := s.Insert(1, "OH", 0, 1, 1)
	s.AddCounts(row, 1, 0, 0)
	s.MarkDirty(row)
	if s.DeltaTracking() {
		t.Fatal("tracking enabled by default")
	}
	if s.DirtyRows() != 0 {
		t.Fatal("DirtyRows nonzero while disabled")
	}
	if d := s.DrainDelta(); !d.Empty() {
		t.Fatalf("drain while disabled: %+v", d)
	}
	s.EachDirty(func(row uint32) { t.Fatalf("EachDirty named row %d while disabled", row) })
}
