package userstore

import (
	"runtime"
	"testing"

	"donorsense/internal/idindex"
)

// The benchmark suite behind BENCH_userstore.{txt,json}: memory per user
// at 1M and 10M synthetic users, amortized tweet-update cost (which must
// stay flat from 1M to 10M rows — the O(1) claim), and per-state slice
// scan throughput. The BenchmarkMapstore* twins measure the
// map-of-pointer-structs representation the store replaced; their run is
// archived as BENCH_userstore_before.* so the bytes/user win stays
// visible next to the gate.

const benchCols = 6

// benchStates mimics the 51-code USPS universe without importing geo.
var benchStates = func() []string {
	out := make([]string, 51)
	for i := range out {
		out[i] = string([]byte{'A' + byte(i/26), 'A' + byte(i%26)})
	}
	return out
}()

// benchID scatters sequential indices across the id space the way real
// snowflake ids scatter.
func benchID(i int) int64 { return int64(idindex.Splitmix64(uint64(i)) >> 1) }

func buildStore(users int) *Store {
	s := New(benchCols)
	for i := 0; i < users; i++ {
		row := s.Insert(benchID(i), benchStates[i%len(benchStates)], uint8(i&1), int64(i), int64(i))
		s.AddCounts(row, 1, 0, 1)
		s.MentionsRow(row)[i%benchCols]++
	}
	return s
}

// heapDelta measures the retained heap growth of build: GC before and
// after, difference of live HeapAlloc. It is the honest footprint —
// slice headers, map buckets, GC metadata and all.
func heapDelta(build func() any) (live any, bytes float64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	live = build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return live, float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

func benchFootprint(b *testing.B, users int) {
	b.ReportAllocs()
	var bytes float64
	var s *Store
	for i := 0; i < b.N; i++ {
		var live any
		live, bytes = heapDelta(func() any { return buildStore(users) })
		s = live.(*Store)
	}
	b.ReportMetric(bytes/float64(users), "bytes/user")
	b.ReportMetric(float64(s.SizeBytes())/float64(users), "acct-bytes/user")
	runtime.KeepAlive(s)
}

func BenchmarkUserstoreFootprint1M(b *testing.B) { benchFootprint(b, 1_000_000) }

func BenchmarkUserstoreFootprint10M(b *testing.B) {
	if testing.Short() {
		b.Skip("10M-row footprint skipped in -short")
	}
	benchFootprint(b, 10_000_000)
}

// benchUpdate measures one tweet arrival against a pre-populated store:
// find the row, bump the counters, bump one mention cell. Flat ns/op
// from 1M to 10M rows is the O(1)-amortized-update acceptance check.
func benchUpdate(b *testing.B, users int) {
	s := buildStore(users)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row, ok := s.Find(benchID(i % users))
		if !ok {
			b.Fatal("benchmark id missing")
		}
		s.AddCounts(row, 1, 0, 1)
		s.MentionsRow(row)[i%benchCols]++
	}
}

func BenchmarkUserstoreUpdate1M(b *testing.B) { benchUpdate(b, 1_000_000) }

func BenchmarkUserstoreUpdate10M(b *testing.B) {
	if testing.Short() {
		b.Skip("10M-row update skipped in -short")
	}
	benchUpdate(b, 10_000_000)
}

// BenchmarkUserstoreStateScan1M sweeps every state slice once: per-state
// user counts plus per-state mention sums, straight off the bitset words
// and the row-major matrix. SetBytes counts the mention cells visited so
// the result reads as scan throughput.
func BenchmarkUserstoreStateScan1M(b *testing.B) {
	const users = 1_000_000
	s := buildStore(users)
	sums := make([]int64, benchCols)
	b.SetBytes(int64(users) * benchCols * 4)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		for st := 0; st < s.StateCount(); st++ {
			total += s.StateUserCount(uint8(st))
			for c := range sums {
				sums[c] = 0
			}
			s.StateMentionSums(uint8(st), sums)
		}
	}
	if total == 0 {
		b.Fatal("scan visited no users")
	}
}

// --- The map-of-pointer-structs "before" representation ---

type mapRec struct {
	ID           int64
	StateCode    string
	GeoTagged    bool
	Tweets       int
	Mentions     [benchCols]int
	Clinical     int
	Hashtags     int
	FirstSeen    int64
	FirstTweetID int64
}

func buildMapStore(users int) map[int64]*mapRec {
	m := make(map[int64]*mapRec)
	for i := 0; i < users; i++ {
		id := benchID(i)
		u := &mapRec{ID: id, StateCode: benchStates[i%len(benchStates)], GeoTagged: i&1 == 1,
			FirstSeen: int64(i), FirstTweetID: int64(i)}
		u.Tweets++
		u.Hashtags++
		u.Mentions[i%benchCols]++
		m[id] = u
	}
	return m
}

func benchMapFootprint(b *testing.B, users int) {
	b.ReportAllocs()
	var bytes float64
	var m map[int64]*mapRec
	for i := 0; i < b.N; i++ {
		var live any
		live, bytes = heapDelta(func() any { return buildMapStore(users) })
		m = live.(map[int64]*mapRec)
	}
	b.ReportMetric(bytes/float64(users), "bytes/user")
	runtime.KeepAlive(m)
}

func BenchmarkMapstoreFootprint1M(b *testing.B) { benchMapFootprint(b, 1_000_000) }

func BenchmarkMapstoreFootprint10M(b *testing.B) {
	if testing.Short() {
		b.Skip("10M-row footprint skipped in -short")
	}
	benchMapFootprint(b, 10_000_000)
}

func benchMapUpdate(b *testing.B, users int) {
	m := buildMapStore(users)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := m[benchID(i%users)]
		if u == nil {
			b.Fatal("benchmark id missing")
		}
		u.Tweets++
		u.Hashtags++
		u.Mentions[i%benchCols]++
	}
}

func BenchmarkMapstoreUpdate1M(b *testing.B) { benchMapUpdate(b, 1_000_000) }

func BenchmarkMapstoreStateScan1M(b *testing.B) {
	const users = 1_000_000
	m := buildMapStore(users)
	counts := map[string]int{}
	sums := map[string]*[benchCols]int64{}
	b.SetBytes(int64(users) * benchCols * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(counts)
		clear(sums)
		for _, u := range m {
			counts[u.StateCode]++
			s := sums[u.StateCode]
			if s == nil {
				s = new([benchCols]int64)
				sums[u.StateCode] = s
			}
			for c, v := range u.Mentions {
				s[c] += int64(v)
			}
		}
	}
	if len(counts) == 0 {
		b.Fatal("scan visited no users")
	}
}
