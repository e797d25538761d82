package core

import (
	"fmt"

	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

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
// The result is bit-identical to AttentionFromCounts over the
// post-change columnar state: updated and inserted rows are normalized
// with the exact float sequence mat.NormalizeRows uses (left-to-right
// float64 sum, then per-element divide), and every other row is moved,
// never recomputed.
//
// Patch returns the row-move plan it applied. Callers holding columns
// aligned with UserIDs() replay it with SpliceColumn so they stay
// aligned through the same moves.
//
// Cost: planning is O(touched · log users). Applying the plan moves the
// rows after the first insert or remove once, with memmove, inside the
// existing backing arrays. The arrays are regrown, with bounded
// headroom, only when the inserts outrun the spare capacity. When no
// user appears or disappears nothing moves and the cost is O(touched).
// The plan is validated in full before anything is written, so an error
// leaves Û unchanged.
func (a *Attention) Patch(ids []int64, counts []int32, removes []int64) (*Splice, error) {
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

	sp := a.plan(ids, removes)
	if sp.newN == 0 {
		return nil, fmt.Errorf("core: no users observed")
	}
	if !sp.identity() {
		a.ids = SpliceColumn(sp, a.ids, 1)
		for i, r := range sp.fresh {
			a.ids[r] = sp.freshIDs[i]
		}
		data := SpliceColumn(sp, a.u.Data(), organ.Count)
		u, err := mat.FromFlat(sp.newN, organ.Count, data)
		if err != nil {
			return nil, fmt.Errorf("core: patch: %w", err)
		}
		a.u = u
	}
	data := a.u.Data()
	for r, id := range ids {
		row := a.RowOf(id)
		normalizeInto(data[row*organ.Count:(row+1)*organ.Count], counts[r*organ.Count:(r+1)*organ.Count])
	}
	a.epoch++
	return sp, nil
}

// plan derives the splice from the sorted update and remove ids: every
// update id unknown to Û is an insert before its lower-bound row, every
// known remove id drops its row. Both event lists come out in ascending
// row order, so one merge builds the segments.
func (a *Attention) plan(ids, removes []int64) *Splice {
	sp := &Splice{oldN: len(a.ids)}
	insAt := make([]int, 0, len(ids)) // lower-bound old row of each insert, ascending
	for _, id := range ids {
		at := a.lowerBound(id)
		if at < len(a.ids) && a.ids[at] == id {
			continue
		}
		insAt = append(insAt, at)
		sp.freshIDs = append(sp.freshIDs, id)
	}
	var rmAt []int // old rows to drop, ascending
	for _, id := range removes {
		if row := a.RowOf(id); row >= 0 {
			rmAt = append(rmAt, row)
		}
	}
	sp.newN = sp.oldN + len(insAt) - len(rmAt)
	if len(insAt) == 0 && len(rmAt) == 0 {
		return sp
	}
	// Walk the events in old-row order; an insert at row p lands before
	// old row p, so it precedes a remove of that same row.
	from, to := 0, 0
	cut := func(end int) {
		if end > from {
			sp.segs = append(sp.segs, spliceSeg{from: from, to: to, n: end - from})
			to += end - from
			from = end
		}
	}
	i, j := 0, 0
	for i < len(insAt) || j < len(rmAt) {
		if i < len(insAt) && (j >= len(rmAt) || insAt[i] <= rmAt[j]) {
			cut(insAt[i])
			sp.fresh = append(sp.fresh, to)
			to++
			i++
			continue
		}
		cut(rmAt[j])
		from++
		j++
	}
	cut(sp.oldN)
	return sp
}

// lowerBound returns the first row whose id is ≥ userID.
func (a *Attention) lowerBound(userID int64) int {
	lo, hi := 0, len(a.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.ids[mid] < userID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Splice is the order-preserving row-move plan of one Patch: which
// pre-patch rows survive and where they land, and which post-patch rows
// are fresh inserts.
type Splice struct {
	oldN, newN int
	segs       []spliceSeg // maximal runs of surviving rows, ascending
	fresh      []int       // post-patch rows of inserted users, ascending
	freshIDs   []int64     // their user ids
}

// spliceSeg moves rows [from, from+n) of the old order to [to, to+n).
type spliceSeg struct{ from, to, n int }

// identity reports whether the plan moves nothing: no user entered or
// left Û, so every row kept its index.
func (sp *Splice) identity() bool { return len(sp.segs) == 0 && len(sp.fresh) == 0 }

// SpliceColumn replays a Patch's plan on a column aligned with the
// pre-patch rows, width elements per row, and returns the column
// aligned with the post-patch rows. Rows move inside the column's own
// backing array. Left moves go in ascending order and right moves in
// descending order, so no move overwrites a row still waiting to move,
// and each row is copied at most once. The array is regrown only when
// its capacity cannot hold the new rows. The regrown array gets
// max(inserts, rows/64) rows of headroom, so a stream of small inserts
// regrows it rarely while the spare memory stays a bounded fraction.
// Slots of fresh rows keep stale values.
func SpliceColumn[T any](sp *Splice, col []T, width int) []T {
	if len(col) != sp.oldN*width {
		panic(fmt.Sprintf("core: splice of a %d-element column, want %d rows × %d", len(col), sp.oldN, width))
	}
	if sp.identity() {
		return col
	}
	need := sp.newN * width
	if cap(col) < need {
		spare := max(len(sp.fresh), sp.newN/64)
		grown := make([]T, need, (sp.newN+spare)*width)
		for _, s := range sp.segs {
			copy(grown[s.to*width:], col[s.from*width:(s.from+s.n)*width])
		}
		return grown
	}
	full := col[:max(len(col), need)]
	for _, s := range sp.segs {
		if s.to < s.from {
			moveBlocks(full, s.from*width, s.to*width, s.n*width)
		}
	}
	for i := len(sp.segs) - 1; i >= 0; i-- {
		if s := sp.segs[i]; s.to > s.from {
			moveBlocks(full, s.from*width, s.to*width, s.n*width)
		}
	}
	return full[:need]
}

// moveBlocks moves col[from:from+n] to col[to:to+n] in blocks of a few
// KiB, front first for a left move and back first for a right one, so
// no block overwrites data still to be read. A right move is an
// overlapping backward copy, and one such memmove over tens of MiB ran
// at half the speed of the same move done in cache-sized blocks
// (measured on a 2-vCPU Xeon VM).
func moveBlocks[T any](col []T, from, to, n int) {
	const block = 4096
	if to < from {
		for off := 0; off < n; off += block {
			end := min(off+block, n)
			copy(col[to+off:to+end], col[from+off:from+end])
		}
		return
	}
	for end := n; end > 0; end -= block {
		off := max(end-block, 0)
		copy(col[to+off:to+end], col[from+off:from+end])
	}
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
