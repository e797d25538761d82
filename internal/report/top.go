package report

import (
	"cmp"
	"slices"

	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
)

// TopUser is one row of the "top attention users" report slice: a user
// ranked by total organ mentions, with the per-organ breakdown the serve
// layer renders. It is a value type holding copies only — nothing aliases
// the live store, so a slice of these can outlive the dataset state it
// was drawn from (the property the RCU snapshots rely on).
type TopUser struct {
	ID       int64
	State    string
	Total    int64
	Mentions [organ.Count]int32
}

// TopMentioners returns the max most-mentioning users of the dataset,
// ordered by descending total organ mentions with ascending user id as
// the deterministic tie-break. Users with zero mentions are skipped
// (they are not in Û either). Each TopUser is read from the live row, so
// a changed state or count shows at once.
//
// Build: one scan of the store's mention column through a size-max
// min-heap, O(users · log max); a row's id is read only when its total
// can enter the heap. Every call builds while the dataset's change
// tracking is off (no Engine over it).
//
// Maintenance: with tracking on, the ranking lives in the dataset
// (pipeline.TopRanking) and is built only on the first call and when a
// larger max than any before is asked for. Other calls re-rank the kept
// top rows, the candidates DrainDelta set aside, and the rows dirtied
// since the last drain: a sort of about k + dirty rows, where k is the
// largest max so far. Because mention totals only
// grow, a row can leave the top only by being outranked, and a row left
// outside can re-enter only after it is touched.
func TopMentioners(d *pipeline.Dataset, max int) []TopUser {
	if max <= 0 || d.Users() == 0 {
		return nil
	}
	var keys []rankKey
	r := d.TopRanking()
	switch {
	case !d.DeltaTracking():
		keys = scanTop(d, max)
	case max > r.K:
		keys = scanTop(d, max)
		r.K = max
		keep(r, keys)
	default:
		keys = rerank(d, r)
	}
	if len(keys) > max {
		keys = keys[:max]
	}
	top := make([]TopUser, len(keys))
	for i, k := range keys {
		id, code, m := d.UserAt(k.row)
		top[i] = TopUser{ID: id, State: code, Total: k.total}
		copy(top[i].Mentions[:], m)
	}
	return top
}

// rankKey is one row's place in the ranking: total descending, then id
// ascending.
type rankKey struct {
	total int64
	id    int64
	row   uint32
}

// rankCmp orders keys best first: negative when a ranks above b.
func rankCmp(a, b rankKey) int {
	if c := cmp.Compare(b.total, a.total); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// rowTotal is row's total organ mentions in the row-major mention column.
func rowTotal(ments []int32, row uint32) int64 {
	m := (*[organ.Count]int32)(ments[int(row)*organ.Count:])
	return int64(m[0]) + int64(m[1]) + int64(m[2]) + int64(m[3]) + int64(m[4]) + int64(m[5])
}

// scanTop is the build: the top max rows of the whole store, best first.
func scanTop(d *pipeline.Dataset, max int) []rankKey {
	n := d.Users()
	// heap is a min-heap under the ranking order: the root is the weakest
	// of the current top set, evicted whenever a stronger row arrives.
	heap := make([]rankKey, 0, min(max, n))
	weaker := func(i, j int) bool { return rankCmp(heap[i], heap[j]) > 0 }
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && weaker(l, smallest) {
				smallest = l
			}
			if r < len(heap) && weaker(r, smallest) {
				smallest = r
			}
			if smallest == i {
				return
			}
			heap[i], heap[smallest] = heap[smallest], heap[i]
			i = smallest
		}
	}
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !weaker(i, parent) {
				return
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}

	ments := d.Mentions()
	for row := uint32(0); row < uint32(n); row++ {
		total := rowTotal(ments, row)
		// A full heap only admits a total at or above its root's; an
		// equal total still needs the id tie-break below.
		if total == 0 || (len(heap) == max && total < heap[0].total) {
			continue
		}
		id, _, _ := d.UserAt(row)
		k := rankKey{total: total, id: id, row: row}
		if len(heap) < max {
			heap = append(heap, k)
			siftUp(len(heap) - 1)
			continue
		}
		if rankCmp(k, heap[0]) < 0 {
			heap[0] = k
			siftDown(0)
		}
	}
	slices.SortFunc(heap, rankCmp)
	return heap
}

// rerank is the maintenance: it ranks the kept rows, the drained
// candidates and the undrained dirty rows from their live totals, keeps
// the top r.K, and returns them best first.
func rerank(d *pipeline.Dataset, r *pipeline.TopRanking) []rankKey {
	ments := d.Mentions()
	keys := make([]rankKey, 0, len(r.Rows)+len(r.Cands)+64)
	add := func(row uint32) {
		id, _, _ := d.UserAt(row)
		keys = append(keys, rankKey{total: rowTotal(ments, row), id: id, row: row})
	}
	for _, row := range r.Rows {
		add(row)
	}
	for _, row := range r.Cands {
		add(row)
	}
	d.EachDirty(func(row uint32) {
		if t := rowTotal(ments, row); t > 0 && t >= r.Kth {
			add(row)
		}
	})
	slices.SortFunc(keys, rankCmp)
	// A row can arrive from more than one source; its copies carry the
	// same key, so they sort next to each other.
	uniq := slices.CompactFunc(keys, func(a, b rankKey) bool { return a.row == b.row })
	if len(uniq) > r.K {
		uniq = uniq[:r.K]
	}
	keep(r, uniq)
	return uniq
}

// keep records keys, the top r.K rows best first, as the ranking and
// clears the candidates it has absorbed.
func keep(r *pipeline.TopRanking, keys []rankKey) {
	r.Rows = r.Rows[:0]
	for _, k := range keys {
		r.Rows = append(r.Rows, k.row)
	}
	r.Kth = 0
	if len(keys) == r.K {
		r.Kth = keys[len(keys)-1].total
	}
	r.Cands = r.Cands[:0]
}

// The unrolled row total in rowTotal covers the paper's six
// organs; this declaration stops the build if organ.Count changes.
var _ [6]int32 = [organ.Count]int32{}

// Primary returns the user's most-mentioned organ by raw counts, ties
// resolved to the lowest organ index — a display aid for the serve
// layer, not the Û arg-max (which hash-splits exact ties; see
// Attention.PrimaryOrgan).
func (u *TopUser) Primary() organ.Organ {
	best, bi := int32(-1), 0
	for i, v := range u.Mentions {
		if v > best {
			best, bi = v, i
		}
	}
	return organ.Organ(bi)
}
