package core

import (
	"fmt"

	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// RowMove is one swap-remove of a Patch: the row at From, then the last
// row, moved into To, the row of a user who left Û. From == To when that
// user's row was itself the last.
type RowMove struct{ From, To int }

// Patch applies one refresh's worth of user changes to Û in place of a
// full rebuild, advancing the epoch. ids/counts carry the users whose
// mention vectors changed (ids strictly ascending, counts row-major
// len(ids)×organ.Count, every row with a nonzero sum — callers route
// users whose mentions dropped to zero through removes instead, exactly
// mirroring the zero-row filter of AttentionFromCounts). removes lists
// user ids to drop, also strictly ascending; ids unknown to the matrix
// are skipped, so callers may pass deletions of users that never earned
// a Û row.
//
// Every user's row is bit-identical to the one AttentionFromCounts
// builds over the post-change columnar state: updated and inserted rows
// are normalized with the exact float sequence mat.NormalizeRows uses
// (left-to-right float64 sum, then per-element divide), and every other
// row is moved, never recomputed. Only the row order differs. Rows stay
// where they are: each removed user's row is filled by the then-last
// row, in the order of removes, and each inserted user is appended, in
// ascending id order.
//
// Patch returns the swap-removes it applied, in order. A caller holding
// columns aligned with the rows replays each move (row To takes row
// From's values), then resizes the columns to Users() rows: the first
// pre-patch Users() − len(moves) rows are the survivors and the rest are
// the inserted users.
//
// Cost: O(touched), apart from the id → row index the first Patch builds
// (O(users), once) and its rare doubling. The arrays regrow, with
// bounded headroom (mat.ResizeRows), only when the inserts outrun the
// spare capacity. Everything is validated before anything is written,
// so an error leaves Û unchanged.
func (a *Attention) Patch(ids []int64, counts []int32, removes []int64) ([]RowMove, error) {
	if len(counts) != len(ids)*organ.Count {
		return nil, fmt.Errorf("core: patch counts length %d does not match %d users", len(counts), len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return nil, fmt.Errorf("core: patch ids not strictly ascending at %d", i)
		}
	}
	for i := 1; i < len(removes); i++ {
		if removes[i-1] >= removes[i] {
			return nil, fmt.Errorf("core: patch removes not strictly ascending at %d", i)
		}
	}
	for r := range ids {
		sum := int64(0)
		for _, v := range counts[r*organ.Count : (r+1)*organ.Count] {
			sum += int64(v)
		}
		if sum <= 0 {
			return nil, fmt.Errorf("core: patch row for user %d sums to %d (zero rows go through removes)", ids[r], sum)
		}
	}
	for i, j := 0, 0; i < len(ids) && j < len(removes); {
		switch {
		case ids[i] < removes[j]:
			i++
		case ids[i] > removes[j]:
			j++
		default:
			return nil, fmt.Errorf("core: patch updates and removes both carry user %d", ids[i])
		}
	}

	if a.index.Slots() == 0 {
		a.index.Reserve(a.ids, len(a.ids))
		for r := range a.ids {
			a.index.Insert(a.ids, int32(r))
		}
	}
	inserts, n := 0, len(a.ids)
	for _, id := range ids {
		if a.RowOf(id) < 0 {
			inserts++
		}
	}
	for _, id := range removes {
		if a.RowOf(id) >= 0 {
			n--
		}
	}
	if n+inserts == 0 {
		return nil, fmt.Errorf("core: no users observed")
	}

	var moves []RowMove
	data := a.u.Data()
	for _, id := range removes {
		r, ok := a.index.Delete(a.ids, id)
		if !ok {
			continue
		}
		row, last := int(r), len(a.ids)-1
		if row != last {
			a.index.Move(a.ids, a.ids[last], r)
			a.ids[row] = a.ids[last]
			copy(data[row*organ.Count:(row+1)*organ.Count], data[last*organ.Count:])
		}
		a.ids = a.ids[:last]
		moves = append(moves, RowMove{From: last, To: row})
	}

	a.ids = mat.ResizeRows(a.ids, n+inserts, 1)
	a.index.Reserve(a.ids, n+inserts)
	a.u.Resize(n + inserts)
	data = a.u.Data()
	next := n
	for r, id := range ids {
		row := a.RowOf(id)
		if row < 0 {
			row = next
			next++
			a.ids[row] = id
			a.index.Insert(a.ids, int32(row))
		}
		normalizeInto(data[row*organ.Count:(row+1)*organ.Count], counts[r*organ.Count:(r+1)*organ.Count])
	}
	a.epoch++
	return moves, nil
}

// normalizeInto writes the row-normalized form of an integer mention
// vector, replicating mat.NormalizeRows bit for bit: the denominator is
// the left-to-right float64 sum and each element is one divide.
func normalizeInto(dst []float64, cnt []int32) {
	sum := 0.0
	for _, v := range cnt {
		sum += float64(v)
	}
	for j, v := range cnt {
		dst[j] = float64(v) / sum
	}
}
