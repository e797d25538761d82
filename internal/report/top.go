package report

import (
	"sort"

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
// the deterministic tie-break. It runs a bounded partial selection — a
// size-max min-heap over one scan of the store's mention column,
// O(users · log max) — so pulling the top 1000 out of 10M rows never
// materializes a full sort. A row's id and state are read only when its
// total can enter the heap; every other row costs six integer loads and
// one compare against the heap root. Users with zero mentions are
// skipped (they are not in Û either).
func TopMentioners(d *pipeline.Dataset, max int) []TopUser {
	n := d.Users()
	if max <= 0 || n == 0 {
		return nil
	}
	if max > n {
		max = n
	}

	// heap is a min-heap under the ranking order: the root is the weakest
	// of the current top set, evicted whenever a stronger row arrives.
	heap := make([]TopUser, 0, max)
	less := func(a, b *TopUser) bool {
		if a.Total != b.Total {
			return a.Total < b.Total
		}
		return a.ID > b.ID
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			smallest := i
			if l < len(heap) && less(&heap[l], &heap[smallest]) {
				smallest = l
			}
			if r < len(heap) && less(&heap[r], &heap[smallest]) {
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
			if !less(&heap[i], &heap[parent]) {
				return
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}

	ments := d.Mentions()
	for row := 0; row < n; row++ {
		m := (*[organ.Count]int32)(ments[row*organ.Count:])
		total := int64(m[0]) + int64(m[1]) + int64(m[2]) + int64(m[3]) + int64(m[4]) + int64(m[5])
		// A full heap only admits a total at or above its root's; an
		// equal total still needs the id tie-break below.
		if total == 0 || (len(heap) == max && total < heap[0].Total) {
			continue
		}
		id, code, _ := d.UserAt(uint32(row))
		u := TopUser{ID: id, State: code, Total: total, Mentions: *m}
		if len(heap) < max {
			heap = append(heap, u)
			siftUp(len(heap) - 1)
			continue
		}
		if less(&heap[0], &u) {
			heap[0] = u
			siftDown(0)
		}
	}

	sort.Slice(heap, func(i, j int) bool { return less(&heap[j], &heap[i]) })
	return heap
}

// The unrolled row total in TopMentioners covers the paper's six
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
