package userstore

import (
	"fmt"
	"math/rand"
	"testing"
)

const testCols = 6

// oracleRec mirrors one user in the map-of-structs representation the
// store replaces; the randomized tests fold the same operations into
// both and assert equality.
type oracleRec struct {
	id           int64
	state        string
	flags        uint8
	firstSeen    int64
	firstTweetID int64
	tweets       int32
	clinical     int32
	hashtags     int32
	mentions     [testCols]int32
}

func checkAgainstOracle(t *testing.T, s *Store, oracle map[int64]*oracleRec) {
	t.Helper()
	if s.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", s.Len(), len(oracle))
	}
	seen := make(map[int64]bool, s.Len())
	for row := int32(0); row < int32(s.Len()); row++ {
		id := s.ID(row)
		if seen[id] {
			t.Fatalf("row %d: duplicate id %d", row, id)
		}
		seen[id] = true
		o := oracle[id]
		if o == nil {
			t.Fatalf("row %d: id %d not in oracle", row, id)
		}
		if got, ok := s.Find(id); !ok || got != row {
			t.Fatalf("Find(%d) = (%d, %v), want (%d, true)", id, got, ok, row)
		}
		if s.StateCode(row) != o.state || s.Flags(row) != o.flags ||
			s.FirstSeen(row) != o.firstSeen || s.FirstTweetID(row) != o.firstTweetID ||
			s.Tweets(row) != o.tweets || s.Clinical(row) != o.clinical || s.Hashtags(row) != o.hashtags {
			t.Fatalf("row %d (id %d): scalar columns diverge from oracle", row, id)
		}
		m := s.MentionsRow(row)
		for c := 0; c < testCols; c++ {
			if m[c] != o.mentions[c] {
				t.Fatalf("row %d (id %d): mentions[%d] = %d, want %d", row, id, c, m[c], o.mentions[c])
			}
		}
		si, ok := s.StateIndexOf(o.state)
		if !ok || !s.StateRows(si).Test(uint32(row)) {
			t.Fatalf("row %d (id %d): not a member of state %q bitset", row, id, o.state)
		}
		// The row must be in exactly one state bitset.
		for i := 0; i < s.StateCount(); i++ {
			if uint8(i) != si && s.StateRows(uint8(i)).Test(uint32(row)) {
				t.Fatalf("row %d (id %d): also member of state %q", row, id, s.StateCodeAt(i))
			}
		}
	}
	// Absent ids do not resolve.
	if _, ok := s.Find(-99999999); ok {
		t.Fatal("Find of absent id succeeded")
	}
}

// checkStateSlices asserts the bitset slicing APIs (per-state user
// counts and per-state mention sums) against a brute-force scan of the
// oracle map — the satellite's state-bitset coverage at store level.
func checkStateSlices(t *testing.T, s *Store, oracle map[int64]*oracleRec) {
	t.Helper()
	wantUsers := map[string]int{}
	wantSums := map[string][testCols]int64{}
	for _, o := range oracle {
		wantUsers[o.state]++
		sums := wantSums[o.state]
		for c := 0; c < testCols; c++ {
			sums[c] += int64(o.mentions[c])
		}
		wantSums[o.state] = sums
	}
	for i := 0; i < s.StateCount(); i++ {
		code := s.StateCodeAt(i)
		if got := s.StateUserCount(uint8(i)); got != wantUsers[code] {
			t.Fatalf("StateUserCount(%q) = %d, want %d", code, got, wantUsers[code])
		}
		sums := make([]int64, testCols)
		s.StateMentionSums(uint8(i), sums)
		want := wantSums[code]
		for c := 0; c < testCols; c++ {
			if sums[c] != want[c] {
				t.Fatalf("StateMentionSums(%q)[%d] = %d, want %d", code, c, sums[c], want[c])
			}
		}
		// Bitset iteration must visit each member exactly once, in
		// ascending row order.
		last := int32(-1)
		n := 0
		s.EachStateRow(uint8(i), func(row int32) {
			if row <= last {
				t.Fatalf("EachStateRow(%q): rows not ascending (%d after %d)", code, row, last)
			}
			last = row
			n++
		})
		if n != wantUsers[code] {
			t.Fatalf("EachStateRow(%q) visited %d rows, want %d", code, n, wantUsers[code])
		}
	}
}

var testStates = []string{"KS", "NY", "CA", "TX", "FL", "WA", "OH", "VT"}

// TestStoreRandomizedOps drives a long random schedule of inserts,
// count updates, and identity rewrites against the map oracle, checking full equality (including bitset membership and
// per-state slices) at intervals.
func TestStoreRandomizedOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			s := New(testCols)
			oracle := map[int64]*oracleRec{}
			ids := []int64{}
			const ops = 6000
			for op := 0; op < ops; op++ {
				switch k := r.Intn(10); {
				case k < 8 || len(ids) == 0: // insert or update
					id := int64(r.Intn(900)) // dense id space → frequent collisions
					row, ok := s.Find(id)
					o := oracle[id]
					if ok != (o != nil) {
						t.Fatalf("op %d: Find(%d) = %v, oracle %v", op, id, ok, o != nil)
					}
					if !ok {
						st := testStates[r.Intn(len(testStates))]
						fl := uint8(r.Intn(2))
						fs, ft := r.Int63n(1e9), r.Int63n(1e9)
						row = s.Insert(id, st, fl, fs, ft)
						o = &oracleRec{id: id, state: st, flags: fl, firstSeen: fs, firstTweetID: ft}
						oracle[id] = o
						ids = append(ids, id)
					}
					dc, dh := int32(r.Intn(3)), int32(r.Intn(3))
					s.AddCounts(row, 1, dc, dh)
					o.tweets++
					o.clinical += dc
					o.hashtags += dh
					m := s.MentionsRow(row)
					for c := 0; c < testCols; c++ {
						d := int32(r.Intn(3))
						m[c] += d
						o.mentions[c] += d
					}
				default: // identity rewrite (merge tie-break path)
					id := ids[r.Intn(len(ids))]
					row, _ := s.Find(id)
					st := testStates[r.Intn(len(testStates))]
					fl := uint8(r.Intn(2))
					fs, ft := r.Int63n(1e9), r.Int63n(1e9)
					s.SetIdentity(row, st, fl, fs, ft)
					o := oracle[id]
					o.state, o.flags, o.firstSeen, o.firstTweetID = st, fl, fs, ft
				}
				if op%500 == 499 {
					checkAgainstOracle(t, s, oracle)
					checkStateSlices(t, s, oracle)
				}
			}
			checkAgainstOracle(t, s, oracle)
			checkStateSlices(t, s, oracle)
		})
	}
}

// TestStoreColumnsRoundTrip checks the checkpoint path: snapshot
// columns, deep-copy them (as gob decode would), rebuild, and compare —
// then keep mutating the rebuilt store.
func TestStoreColumnsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := New(testCols)
	oracle := map[int64]*oracleRec{}
	for i := 0; i < 1000; i++ {
		id := int64(i * 3)
		st := testStates[r.Intn(len(testStates))]
		fl := uint8(r.Intn(2))
		row := s.Insert(id, st, fl, int64(i), int64(i+1))
		s.AddCounts(row, int32(1+r.Intn(5)), int32(r.Intn(4)), int32(r.Intn(4)))
		o := &oracleRec{id: id, state: st, flags: fl, firstSeen: int64(i), firstTweetID: int64(i + 1),
			tweets: s.Tweets(row), clinical: s.Clinical(row), hashtags: s.Hashtags(row)}
		m := s.MentionsRow(row)
		for c := 0; c < testCols; c++ {
			m[c] = int32(r.Intn(9))
			o.mentions[c] = m[c]
		}
		oracle[id] = o
	}
	c := s.Columns()
	cp := Columns{
		IDs:          append([]int64(nil), c.IDs...),
		FirstSeen:    append([]int64(nil), c.FirstSeen...),
		FirstTweetID: append([]int64(nil), c.FirstTweetID...),
		Tweets:       append([]int32(nil), c.Tweets...),
		Clinical:     append([]int32(nil), c.Clinical...),
		Hashtags:     append([]int32(nil), c.Hashtags...),
		StateIdx:     append([]uint8(nil), c.StateIdx...),
		Flags:        append([]uint8(nil), c.Flags...),
		Mentions:     append([]int32(nil), c.Mentions...),
		StateCodes:   append([]string(nil), c.StateCodes...),
	}
	re, err := FromColumns(testCols, cp)
	if err != nil {
		t.Fatalf("FromColumns: %v", err)
	}
	checkAgainstOracle(t, re, oracle)
	checkStateSlices(t, re, oracle)

	// The rebuilt store must accept further mutation.
	row := re.Insert(999999, "NM", 0, 5, 6)
	re.AddCounts(row, 1, 0, 0)
	oracle[999999] = &oracleRec{id: 999999, state: "NM", firstSeen: 5, firstTweetID: 6, tweets: 1}
	checkAgainstOracle(t, re, oracle)
	checkStateSlices(t, re, oracle)
}

// TestStoreFromColumnsRejectsCorruption covers the validation paths.
func TestStoreFromColumnsRejectsCorruption(t *testing.T) {
	good := func() Columns {
		s := New(testCols)
		s.Insert(1, "KS", 0, 1, 1)
		s.Insert(2, "NY", 0, 2, 2)
		return s.Columns()
	}
	c := good()
	c.Tweets = c.Tweets[:1]
	if _, err := FromColumns(testCols, c); err == nil {
		t.Error("short column accepted")
	}
	c = good()
	c.IDs = []int64{1, 1}
	if _, err := FromColumns(testCols, c); err == nil {
		t.Error("duplicate id accepted")
	}
	c = good()
	c.StateIdx = []uint8{0, 9}
	if _, err := FromColumns(testCols, c); err == nil {
		t.Error("out-of-range state index accepted")
	}
	c = good()
	c.StateCodes = []string{"KS", "KS"}
	if _, err := FromColumns(testCols, c); err == nil {
		t.Error("duplicate interned state accepted")
	}
}

// TestBitset exercises the bit vector directly, including growth and
// word-boundary indices.
func TestBitset(t *testing.T) {
	var b Bitset
	idx := []uint32{0, 1, 63, 64, 65, 127, 128, 1000}
	for _, i := range idx {
		b.Set(i)
	}
	for _, i := range idx {
		if !b.Test(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Test(2) || b.Test(999) {
		t.Error("unexpected bit set")
	}
	if got := b.Count(); got != len(idx) {
		t.Errorf("Count = %d, want %d", got, len(idx))
	}
	var seen []uint32
	b.Each(func(i uint32) { seen = append(seen, i) })
	for k, i := range idx {
		if seen[k] != i {
			t.Fatalf("Each order: got %v, want %v", seen, idx)
		}
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != len(idx)-1 {
		t.Error("Clear(64) failed")
	}
	b.Clear(100000) // past the end: no-op
}

// TestStoreEmpty covers the zero-value edge cases.
func TestStoreEmpty(t *testing.T) {
	s := New(testCols)
	if s.Len() != 0 || s.StateCount() != 0 {
		t.Fatal("new store not empty")
	}
	if _, ok := s.Find(1); ok {
		t.Error("Find on empty store succeeded")
	}
	if s.SizeBytes() != 0 {
		t.Errorf("empty SizeBytes = %d", s.SizeBytes())
	}
	re, err := FromColumns(testCols, Columns{})
	if err != nil {
		t.Fatalf("FromColumns(empty): %v", err)
	}
	if re.Len() != 0 {
		t.Error("rebuilt empty store not empty")
	}
	re.Insert(5, "KS", FlagGeoTagged, 1, 2)
	if !re.GeoTagged(0) || re.StateCode(0) != "KS" {
		t.Error("insert after empty restore broken")
	}
}
