// Package userstore is the columnar per-user store behind
// pipeline.Dataset. At millions of retained users a map of pointer
// structs costs ~100+ bytes of header, pointer, and GC-metadata overhead
// per user before any data; this store keeps the same information in a
// handful of flat parallel slices — a few dozen bytes per user, no
// per-entry allocation, nothing for the garbage collector to trace —
// with O(1) amortized find-or-insert.
//
// Layout:
//
//   - An open-addressing id → row hash (internal/idindex) with linear
//     probing: 4-byte row slots probing the ids column; growth rehashes
//     at 75% load.
//   - Parallel column slices indexed by row: id, first-seen time, first
//     tweet id (int64); tweet/clinical/hashtag counters (int32); an
//     interned state index and a flags byte (uint8 each).
//   - One row-major mention-count matrix ([]int32, nCols columns per
//     row) — the shape the analytics engine consumes, so building Û is a
//     single linear pass with no intermediate maps.
//   - Per-state Bitset membership indices, so per-state slices iterate
//     64 rows per word instead of hashing every user.
//
// Rows are append-only: a user keeps its row for the store's lifetime,
// so columns never fragment and iteration is always a linear scan. Row
// order is insertion order, which depends on how the stream was sharded
// and merged; consumers that need determinism sort by user id.
package userstore

import (
	"fmt"
	"math"

	"donorsense/internal/idindex"
)

// Flag bits of the per-row flags byte.
const (
	// FlagGeoTagged records that the user's state came from a GPS
	// geo-tag; unset means the geocoded profile location (the two
	// location sources the pipeline distinguishes).
	FlagGeoTagged uint8 = 1 << 0
)

// NoState is the interned state index of a row whose identity has not
// been set yet (Insert assigns a real state immediately; the sentinel
// only exists so the zero column value is never a valid state).
const NoState = math.MaxUint8

// Store is the columnar user store. It is not safe for concurrent
// mutation; like pipeline.Dataset, the collecting goroutine owns it.
type Store struct {
	nCols int

	// The id → row index over the ids column.
	index idindex.Table

	// Columns, indexed by row. All have identical length.
	ids          []int64
	firstSeen    []int64
	firstTweetID []int64
	tweets       []int32
	clinical     []int32
	hashtags     []int32
	stateIdx     []uint8
	flags        []uint8
	mentions     []int32 // row-major, nCols per row

	// State interning and per-state membership. stateCodes is
	// append-ordered (first-seen order, not canonical); members[i] is
	// the row bitset of stateCodes[i].
	stateCodes  []string
	stateByCode map[string]uint8
	members     []Bitset

	// Dirty-row tracking (delta.go); nil means disabled.
	delta *deltaState
}

// New returns an empty store with nCols mention columns per user.
func New(nCols int) *Store {
	if nCols <= 0 {
		panic(fmt.Sprintf("userstore: invalid column count %d", nCols))
	}
	return &Store{
		nCols:       nCols,
		stateByCode: make(map[string]uint8, 64),
	}
}

// Len returns the number of live rows (retained users).
func (s *Store) Len() int { return len(s.ids) }

// Cols returns the number of mention columns per row.
func (s *Store) Cols() int { return s.nCols }

// Find returns the row of id, or (-1, false) when absent.
func (s *Store) Find(id int64) (int32, bool) { return s.index.Row(s.ids, id) }

// Insert appends a new row for id with the given identity fields and
// zeroed counters, and returns its row index. id must not already be
// present (Find first); inserting a duplicate corrupts the index.
func (s *Store) Insert(id int64, stateCode string, flags uint8, firstSeen, firstTweetID int64) int32 {
	if len(s.ids) >= math.MaxInt32 {
		panic("userstore: row count exceeds int32")
	}
	row := int32(len(s.ids))
	st := s.internState(stateCode)
	s.ids = append(s.ids, id)
	s.index.Reserve(s.ids, len(s.ids))
	s.index.Insert(s.ids, row)
	s.firstSeen = append(s.firstSeen, firstSeen)
	s.firstTweetID = append(s.firstTweetID, firstTweetID)
	s.tweets = append(s.tweets, 0)
	s.clinical = append(s.clinical, 0)
	s.hashtags = append(s.hashtags, 0)
	s.stateIdx = append(s.stateIdx, st)
	s.flags = append(s.flags, flags)
	s.mentions = append(s.mentions, make([]int32, s.nCols)...)
	s.members[st].Set(uint32(row))
	s.markTouch(row)
	return row
}

// internState returns the intern index of code, adding it on first use.
func (s *Store) internState(code string) uint8 {
	if i, ok := s.stateByCode[code]; ok {
		return i
	}
	if len(s.stateCodes) >= int(NoState) {
		panic(fmt.Sprintf("userstore: state intern table overflow at %q", code))
	}
	i := uint8(len(s.stateCodes))
	s.stateCodes = append(s.stateCodes, code)
	s.stateByCode[code] = i
	s.members = append(s.members, nil)
	return i
}

// Column accessors. Rows are valid indices in [0, Len()); no bounds
// checks beyond the slice's own.

// ID returns the user id of row.
func (s *Store) ID(row int32) int64 { return s.ids[row] }

// FirstSeen returns the first-retained-tweet time (UnixNano) of row.
func (s *Store) FirstSeen(row int32) int64 { return s.firstSeen[row] }

// FirstTweetID returns the first retained tweet id of row.
func (s *Store) FirstTweetID(row int32) int64 { return s.firstTweetID[row] }

// Tweets returns the retained tweet count of row.
func (s *Store) Tweets(row int32) int32 { return s.tweets[row] }

// Clinical returns the clinical-variant mention count of row.
func (s *Store) Clinical(row int32) int32 { return s.clinical[row] }

// Hashtags returns the hashtag-token count of row.
func (s *Store) Hashtags(row int32) int32 { return s.hashtags[row] }

// Flags returns the flags byte of row.
func (s *Store) Flags(row int32) uint8 { return s.flags[row] }

// GeoTagged reports whether row's state came from a GPS geo-tag.
func (s *Store) GeoTagged(row int32) bool { return s.flags[row]&FlagGeoTagged != 0 }

// StateIndex returns the interned state index of row.
func (s *Store) StateIndex(row int32) uint8 { return s.stateIdx[row] }

// StateCode returns the state code of row (an interned string; no
// allocation).
func (s *Store) StateCode(row int32) string { return s.stateCodes[s.stateIdx[row]] }

// MentionsRow returns row's mention-count slice — a zero-copy view into
// the row-major matrix. The caller may mutate it to update counts.
func (s *Store) MentionsRow(row int32) []int32 {
	return s.mentions[int(row)*s.nCols : (int(row)+1)*s.nCols : (int(row)+1)*s.nCols]
}

// IDs returns the id column in row order (a view; do not mutate).
func (s *Store) IDs() []int64 { return s.ids }

// Mentions returns the whole row-major mention matrix (a view; mutate
// only through MentionsRow).
func (s *Store) Mentions() []int32 { return s.mentions }

// AddCounts adds deltas to row's tweet/clinical/hashtag counters.
func (s *Store) AddCounts(row, tweets, clinical, hashtags int32) {
	s.tweets[row] += tweets
	s.clinical[row] += clinical
	s.hashtags[row] += hashtags
	s.markTouch(row)
}

// SetIdentity rewrites row's identity fields (the merge tie-break
// winner's state, flags, and first-tweet key), moving the row between
// state bitsets when the state changes.
func (s *Store) SetIdentity(row int32, stateCode string, flags uint8, firstSeen, firstTweetID int64) {
	st := s.internState(stateCode)
	if st != s.stateIdx[row] {
		s.members[s.stateIdx[row]].Clear(uint32(row))
		s.members[st].Set(uint32(row))
		s.stateIdx[row] = st
	}
	s.flags[row] = flags
	s.firstSeen[row] = firstSeen
	s.firstTweetID[row] = firstTweetID
	s.markTouch(row)
}

// StateCount returns the number of interned states.
func (s *Store) StateCount() int { return len(s.stateCodes) }

// StateCodeAt returns the interned state code at index i.
func (s *Store) StateCodeAt(i int) string { return s.stateCodes[i] }

// StateIndexOf returns the intern index of code, or (0, false) when the
// code has never been seen.
func (s *Store) StateIndexOf(code string) (uint8, bool) {
	i, ok := s.stateByCode[code]
	return i, ok
}

// StateRows returns the membership bitset of interned state i (a view;
// do not mutate). Bits index rows.
func (s *Store) StateRows(i uint8) Bitset { return s.members[i] }

// EachStateRow calls fn for every row in interned state i, ascending.
func (s *Store) EachStateRow(i uint8, fn func(row int32)) {
	s.members[i].Each(func(b uint32) { fn(int32(b)) })
}

// StateUserCount returns the number of users in interned state i — one
// popcount pass over the bitset words.
func (s *Store) StateUserCount(i uint8) int { return s.members[i].Count() }

// StateMentionSums accumulates the per-column mention totals of
// interned state i into sums (len nCols). The scan iterates bitset
// words and reads mention rows straight out of the matrix.
func (s *Store) StateMentionSums(i uint8, sums []int64) {
	s.members[i].Each(func(b uint32) {
		row := s.mentions[int(b)*s.nCols : (int(b)+1)*s.nCols]
		for c, v := range row {
			sums[c] += int64(v)
		}
	})
}

// SizeBytes returns the retained heap footprint of the store: columns,
// hash table, and bitset words, by capacity. String headers of the
// (≤ 51-entry) intern table are ignored.
func (s *Store) SizeBytes() int64 {
	n := int64(0)
	n += int64(cap(s.ids)+cap(s.firstSeen)+cap(s.firstTweetID)) * 8
	n += int64(cap(s.tweets)+cap(s.clinical)+cap(s.hashtags)+cap(s.mentions)) * 4
	n += int64(cap(s.stateIdx) + cap(s.flags))
	n += int64(s.index.Slots()) * 4
	for _, m := range s.members {
		n += int64(cap(m)) * 8
	}
	return n
}

// Columns is a borrowed view of every dense column plus the state
// intern table, in row order — the checkpoint encoder's input. Slices
// alias store memory: read-only, and invalidated by the next mutation.
type Columns struct {
	IDs          []int64
	FirstSeen    []int64
	FirstTweetID []int64
	Tweets       []int32
	Clinical     []int32
	Hashtags     []int32
	StateIdx     []uint8
	Flags        []uint8
	Mentions     []int32
	StateCodes   []string
}

// Columns returns the store's column views.
func (s *Store) Columns() Columns {
	return Columns{
		IDs:          s.ids,
		FirstSeen:    s.firstSeen,
		FirstTweetID: s.firstTweetID,
		Tweets:       s.tweets,
		Clinical:     s.clinical,
		Hashtags:     s.hashtags,
		StateIdx:     s.stateIdx,
		Flags:        s.flags,
		Mentions:     s.mentions,
		StateCodes:   s.stateCodes,
	}
}

// FromColumns rebuilds a store from decoded columns, adopting the
// slices (the checkpoint loader owns freshly-decoded memory). It
// validates column lengths, state indices, and id uniqueness, and
// reconstructs the hash index and state bitsets.
func FromColumns(nCols int, c Columns) (*Store, error) {
	n := len(c.IDs)
	if len(c.FirstSeen) != n || len(c.FirstTweetID) != n ||
		len(c.Tweets) != n || len(c.Clinical) != n || len(c.Hashtags) != n ||
		len(c.StateIdx) != n || len(c.Flags) != n || len(c.Mentions) != n*nCols {
		return nil, fmt.Errorf("userstore: column lengths disagree (rows=%d)", n)
	}
	if len(c.StateCodes) >= int(NoState) {
		return nil, fmt.Errorf("userstore: %d interned states exceeds limit", len(c.StateCodes))
	}
	s := New(nCols)
	s.ids = c.IDs
	s.firstSeen = c.FirstSeen
	s.firstTweetID = c.FirstTweetID
	s.tweets = c.Tweets
	s.clinical = c.Clinical
	s.hashtags = c.Hashtags
	s.stateIdx = c.StateIdx
	s.flags = c.Flags
	s.mentions = c.Mentions
	s.stateCodes = c.StateCodes
	s.members = make([]Bitset, len(c.StateCodes))
	for i, code := range c.StateCodes {
		if _, dup := s.stateByCode[code]; dup {
			return nil, fmt.Errorf("userstore: duplicate interned state %q", code)
		}
		s.stateByCode[code] = uint8(i)
	}

	s.index.Reserve(s.ids, n)
	for row, id := range s.ids {
		st := s.stateIdx[row]
		if int(st) >= len(s.stateCodes) {
			return nil, fmt.Errorf("userstore: row %d has state index %d out of range", row, st)
		}
		if !s.index.Insert(s.ids, int32(row)) {
			return nil, fmt.Errorf("userstore: duplicate user id %d", id)
		}
		s.members[st].Set(uint32(row))
	}
	return s, nil
}
