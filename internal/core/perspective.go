package core

import (
	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// OrganCharacterization is the organ-perspective aggregate (Figure 3):
// row i of K is the mean attention distribution of the users whose primary
// (most-cited) organ is i.
type OrganCharacterization struct {
	// K is the n×n aggregation matrix of Equation 3 under the Equation 1
	// membership.
	K *mat.Matrix
	// GroupSizes is the number of users aggregated into each organ row.
	GroupSizes []int
}

// Signature returns organ o's characterization row: how users focused on
// o distribute attention across all organs.
func (oc *OrganCharacterization) Signature(o organ.Organ) []float64 {
	return oc.K.Row(o.Index())
}

// CoMentionRank returns the other organs in descending order of attention
// within o's signature — the ranked bins of Figure 3 (o itself excluded).
func (oc *OrganCharacterization) CoMentionRank(o organ.Organ) []organ.Organ {
	row := oc.K.Row(o.Index())
	row[o.Index()] = -1 // exclude self
	var out []organ.Organ
	for len(out) < organ.Count-1 {
		best, bi := -1.0, -1
		for i, v := range row {
			if v > best {
				best, bi = v, i
			}
		}
		out = append(out, organ.Organ(bi))
		row[bi] = -2
	}
	return out
}

// RegionCharacterization is the region-perspective aggregate
// (Figure 4): row r of K is the mean attention distribution of the users
// living in state r. States follow geo.StateCodes() order.
type RegionCharacterization struct {
	K *mat.Matrix
	// StateCodes gives the row order (canonical geo.StateCodes()).
	StateCodes []string
	// GroupSizes is the number of users aggregated per state.
	GroupSizes []int
	// EmptyStates lists row indices with no users (all-zero rows).
	EmptyStates []int
}

// StateRow returns the index of a state code in the characterization, or
// -1 when unknown.
func (rc *RegionCharacterization) StateRow(code string) int {
	return geo.StateIndex(code)
}

// Signature returns the state's attention distribution, or nil for
// unknown codes.
func (rc *RegionCharacterization) Signature(code string) []float64 {
	i := rc.StateRow(code)
	if i < 0 {
		return nil
	}
	return rc.K.Row(i)
}

// NonEmptyRows returns the rows (and their codes) of states that had at
// least one user, the input for the Figure 6 clustering. The rows are
// zero-copy views into K; callers must not mutate them.
func (rc *RegionCharacterization) NonEmptyRows() (rows [][]float64, codes []string) {
	empty := make(map[int]bool, len(rc.EmptyStates))
	for _, e := range rc.EmptyStates {
		empty[e] = true
	}
	for i, code := range rc.StateCodes {
		if empty[i] {
			continue
		}
		rows = append(rows, rc.K.RowView(i))
		codes = append(codes, code)
	}
	return rows, codes
}
