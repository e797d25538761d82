// Package core implements the paper's contribution: the characterization
// of social-media users by their attention to solid organs, and its
// aggregations.
//
// Users are represented by a row-normalized contingency matrix
// Û = [û_ij] (m users × n organs) where û_ij is the fraction of user i's
// organ mentions that go to organ j (§III-B). Users are grouped either by
// their most-cited organ (Equation 1, the organ perspective of Figure 3)
// or by their state (Equation 2, the region perspective of Figures 4–6),
// and each group is aggregated with Equation 3,
//
//	K = (LᵀL)⁻¹ Lᵀ Û,
//
// which for such a disjoint membership L is the mean of the group's Û
// rows; GroupSums computes it. Per-state organ highlighting uses the
// relative risk of Equation 4 (Figure 5), counted by StateOrganCells.
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"donorsense/internal/idindex"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// AttentionFromCounts builds the Attention matrix straight from columnar
// mention counts: ids is the user-id column and counts the row-major
// len(ids)×organ.Count mention matrix (the userstore layout), both in
// arbitrary row order. Users whose mention row sums to zero are skipped
// (they have no attention to normalize), and rows are ordered by
// ascending user id. It errors when no user has a mention.
func AttentionFromCounts(ids []int64, counts []int32) (*Attention, error) {
	a, _, err := AttentionWithSources(ids, counts)
	return a, err
}

// AttentionWithSources is AttentionFromCounts that also returns, for
// each Û row, the index of its source row in ids/counts. Callers use it
// to read the store's other row-aligned columns (a user's state, say)
// for every Û row without a per-user id lookup.
func AttentionWithSources(ids []int64, counts []int32) (*Attention, []int32, error) {
	src, err := SourcesByID(ids, counts)
	if err != nil {
		return nil, nil, err
	}
	a, err := buildAttention(ids, counts, src)
	return a, src, err
}

// SourcesByID returns the rows of ids/counts that Û is built from —
// those whose mention row sums to nonzero — in ascending user-id order.
// It errors when no user has a mention.
func SourcesByID(ids []int64, counts []int32) ([]int32, error) {
	if len(counts) != len(ids)*organ.Count {
		return nil, fmt.Errorf("core: counts length %d does not match %d users", len(counts), len(ids))
	}
	pairs := make([]idRow, 0, len(ids))
	for r, id := range ids {
		if rowSum(counts, r) != 0 {
			pairs = append(pairs, idRow{id: id, row: int32(r)})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("core: no users observed")
	}
	pairs = sortByID(pairs)
	src := make([]int32, len(pairs))
	for i, p := range pairs {
		src[i] = p.row
	}
	return src, nil
}

// AttentionFromRows is AttentionWithSources over source rows an earlier
// SourcesByID returned for the same columns, so the build skips the
// sort. Rows that are not exactly SourcesByID's — out of range, not in
// strictly ascending id order, a zero row listed or a nonzero row left
// out — are refused.
func AttentionFromRows(ids []int64, counts []int32, rows []int32) (*Attention, error) {
	if len(counts) != len(ids)*organ.Count {
		return nil, fmt.Errorf("core: counts length %d does not match %d users", len(counts), len(ids))
	}
	nonzero := 0
	for r := range ids {
		if rowSum(counts, r) != 0 {
			nonzero++
		}
	}
	if nonzero != len(rows) {
		return nil, fmt.Errorf("core: %d source rows for %d users with mentions", len(rows), nonzero)
	}
	return buildAttention(ids, counts, rows)
}

// rowSum is row r's total in the row-major mention matrix counts.
func rowSum(counts []int32, r int) int32 {
	sum := int32(0)
	for _, v := range counts[r*organ.Count : (r+1)*organ.Count] {
		sum += v
	}
	return sum
}

// buildAttention lays out Û with row i the normalized mention row src[i]
// of ids/counts. It refuses a source row out of range, out of strictly
// ascending id order, or without a mention, and an empty src.
func buildAttention(ids []int64, counts []int32, src []int32) (*Attention, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("core: no users observed")
	}
	m := mat.New(len(src), organ.Count)
	data := m.Data()
	outIDs := make([]int64, len(src))
	for i, r := range src {
		if r < 0 || int(r) >= len(ids) {
			return nil, fmt.Errorf("core: source row %d of %d", r, len(ids))
		}
		if outIDs[i] = ids[r]; i > 0 && outIDs[i] <= outIDs[i-1] {
			return nil, fmt.Errorf("core: source rows not in ascending id order at %d", i)
		}
		if rowSum(counts, int(r)) == 0 {
			return nil, fmt.Errorf("core: source row %d has no mention", r)
		}
		normalizeInto(data[i*organ.Count:(i+1)*organ.Count], counts[int(r)*organ.Count:(int(r)+1)*organ.Count])
	}
	return &Attention{ids: outIDs, u: m}, nil
}

// idRow pairs a user id with its source row.
type idRow struct {
	id  int64
	row int32
}

// sortByID orders pairs by ascending id (ids are unique, so the order is
// total) and returns the sorted slice, which may be a new array. One
// counting pass scatters the pairs into 2^16 buckets by the high bits of
// id−min, and each bucket is then sorted on its own: insertion sort for
// the handful of entries a bucket holds when ids spread over their range,
// a comparison sort for any bucket that clustered ids overfill.
func sortByID(pairs []idRow) []idRow {
	const bucketBits = 16
	lo, hi := pairs[0].id, pairs[0].id
	for _, p := range pairs {
		lo, hi = min(lo, p.id), max(hi, p.id)
	}
	shift := max(0, bits.Len64(uint64(hi)-uint64(lo))-bucketBits)
	bucket := func(id int64) int { return int((uint64(id) - uint64(lo)) >> shift) }

	start := make([]int, 1<<bucketBits+1)
	for _, p := range pairs {
		start[bucket(p.id)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	next := append([]int(nil), start[:1<<bucketBits]...)
	out := make([]idRow, len(pairs))
	for _, p := range pairs {
		b := bucket(p.id)
		out[next[b]] = p
		next[b]++
	}
	for b := 0; b < 1<<bucketBits; b++ {
		s := out[start[b]:start[b+1]]
		if len(s) > 32 {
			slices.SortFunc(s, func(x, y idRow) int { return cmp.Compare(x.id, y.id) })
			continue
		}
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j].id < s[j-1].id; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
	}
	return out
}

// Attention is the normalized user-attention matrix Û. Each row is a
// discrete probability distribution over the six organs. A cold build
// (AttentionFromCounts) orders the rows by ascending user id; Patch then
// keeps every surviving row where it is, appends new users and fills a
// leaving user's row with the last one, so after a patch the order is
// arbitrary. epoch counts applied patches: 0 is a cold build, and every
// Patch call increments it, so consumers caching row-derived state can
// detect staleness cheaply.
type Attention struct {
	ids   []int64
	u     *mat.Matrix
	epoch uint64

	// The id → row index over ids, built by the first Patch. Until then
	// it is empty and the rows are in id order.
	index idindex.Table
}

// Users returns the number of users (rows).
func (a *Attention) Users() int { return len(a.ids) }

// UserIDs returns the user IDs in row order: ascending right after a
// cold build, arbitrary once a Patch has run. The slice is shared; do
// not mutate.
func (a *Attention) UserIDs() []int64 { return a.ids }

// Epoch returns the number of patches applied since the cold build.
func (a *Attention) Epoch() uint64 { return a.epoch }

// RowOf returns the row index of the user, or -1 if unknown: a binary
// search while the rows are in id order (a cold build), a hash probe of
// the index once a Patch has run.
func (a *Attention) RowOf(userID int64) int {
	if a.index.Slots() > 0 {
		row, _ := a.index.Row(a.ids, userID)
		return int(row)
	}
	lo, hi := 0, len(a.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.ids[mid] < userID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.ids) && a.ids[lo] == userID {
		return lo
	}
	return -1
}

// RowsByID returns the row indices in ascending user-id order: the
// order a cold build lays the rows out in.
func (a *Attention) RowsByID() []int32 {
	pairs := make([]idRow, len(a.ids))
	for r, id := range a.ids {
		pairs[r] = idRow{id: id, row: int32(r)}
	}
	pairs = sortByID(pairs)
	rows := make([]int32, len(pairs))
	for i, p := range pairs {
		rows[i] = p.row
	}
	return rows
}

// Row returns a copy of the attention distribution of the given row.
func (a *Attention) Row(row int) []float64 { return a.u.Row(row) }

// Matrix returns the underlying Û. Callers must not mutate it.
func (a *Attention) Matrix() *mat.Matrix { return a.u }

// PrimaryOrgan returns the arg-max organ of a row (Equation 1's
// aggregation key). Exact ties (common for low-activity users, e.g. one
// heart tweet plus one kidney tweet) resolve by a deterministic hash of
// the user ID rather than NumPy's lowest-index convention: first-index
// tie-breaking funnels every 50/50 user into the lower-indexed organ's
// group, which systematically distorts the Figure 3 co-mention ranks.
// The hash split keeps the aggregation unbiased while staying
// reproducible.
func (a *Attention) PrimaryOrgan(row int) organ.Organ {
	r := a.u.RowView(row)
	best, bi := r[0], 0
	tied := 1
	for i := 1; i < len(r); i++ {
		switch {
		case r[i] > best:
			best, bi, tied = r[i], i, 1
		case r[i] == best:
			tied++
		}
	}
	if tied == 1 {
		return organ.Organ(bi)
	}
	h := idindex.Splitmix64(uint64(a.ids[row]))
	pick := int(h % uint64(tied))
	for i := bi; i < len(r); i++ {
		if r[i] == best {
			if pick == 0 {
				return organ.Organ(i)
			}
			pick--
		}
	}
	return organ.Organ(bi)
}
