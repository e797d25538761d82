package core

import (
	"fmt"

	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// Patch applies one refresh's worth of user changes to Û in place of a
// full rebuild, advancing the epoch. ids/counts carry the users whose
// mention vectors changed (ids strictly ascending, counts row-major
// len(ids)×organ.Count, every row with a nonzero sum, mirroring the
// zero-row filter of AttentionFromCounts). Mention counts only grow, so
// no user ever leaves Û.
//
// Every user's row is bit-identical to the one AttentionFromCounts
// builds over the post-change columnar state: updated and inserted rows
// are normalized with the exact float sequence mat.NormalizeRows uses
// (left-to-right float64 sum, then per-element divide), and every other
// row is left alone. Only the row order differs: rows stay where they
// are, and each inserted user is appended, in ascending id order. A
// caller holding columns aligned with the rows resizes them to Users()
// rows; the rows past the pre-patch Users() are the inserted users.
//
// Cost: O(touched), apart from the id → row index the first Patch with
// a change builds (O(users), once) and its rare doubling. The arrays
// regrow, with bounded headroom (mat.ResizeRows), only when the inserts
// outrun the spare capacity. Everything is validated before anything
// is written, so an error leaves Û unchanged.
func (a *Attention) Patch(ids []int64, counts []int32) error {
	if len(counts) != len(ids)*organ.Count {
		return fmt.Errorf("core: patch counts length %d does not match %d users", len(counts), len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return fmt.Errorf("core: patch ids not strictly ascending at %d", i)
		}
	}
	for r := range ids {
		sum := int64(0)
		for _, v := range counts[r*organ.Count : (r+1)*organ.Count] {
			sum += int64(v)
		}
		if sum <= 0 {
			return fmt.Errorf("core: patch row for user %d sums to %d", ids[r], sum)
		}
	}

	if len(ids) == 0 {
		a.epoch++
		return nil
	}
	if a.index.Slots() == 0 {
		a.index.Reserve(a.ids, len(a.ids))
		for r := range a.ids {
			a.index.Insert(a.ids, int32(r))
		}
	}
	n := len(a.ids)
	inserts := 0
	for _, id := range ids {
		if a.RowOf(id) < 0 {
			inserts++
		}
	}

	a.ids = mat.ResizeRows(a.ids, n+inserts, 1)
	a.index.Reserve(a.ids, n+inserts)
	a.u.Resize(n + inserts)
	data := a.u.Data()
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
	return nil
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
