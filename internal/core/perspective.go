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

// CharacterizeOrgans builds the organ perspective from the attention
// matrix: users are grouped by arg-max organ (Equation 1) and aggregated
// with Equation 3.
func CharacterizeOrgans(a *Attention) (*OrganCharacterization, error) {
	gs := NewGroupSums(organ.Count)
	for row := 0; row < a.Users(); row++ {
		if err := gs.Fold(a.PrimaryOrgan(row).Index(), a.u.RowView(row), 1); err != nil {
			return nil, err
		}
	}
	return gs.Organs()
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

// StateLookup resolves a user id to its USPS state code. It is the
// callback form of the old map[int64]string argument: the columnar store
// answers it with an O(1) hash probe and an interned string, so callers
// no longer materialize an O(users) map to run the region analyses.
type StateLookup func(id int64) (string, bool)

// lookupMap adapts a materialized state map to a StateLookup.
func lookupMap(stateOf map[int64]string) StateLookup {
	return func(id int64) (string, bool) {
		code, ok := stateOf[id]
		return code, ok
	}
}

// CharacterizeRegions builds the region perspective: users are grouped by
// home state (Equation 2) and aggregated with Equation 3. stateOf maps a
// user ID to its USPS state code; users missing from the map or with
// unknown codes are left out of the aggregation (the paper drops users it
// cannot locate).
func CharacterizeRegions(a *Attention, stateOf map[int64]string) (*RegionCharacterization, error) {
	return CharacterizeRegionsFunc(a, lookupMap(stateOf))
}

// CharacterizeRegionsFunc is CharacterizeRegions with a StateLookup
// callback instead of a materialized map. Group sums are exact, so K is
// bit-identical no matter how the lookup is backed or in which order
// users are visited.
func CharacterizeRegionsFunc(a *Attention, stateOf StateLookup) (*RegionCharacterization, error) {
	gs := NewGroupSums(len(geo.StateCodes()))
	for row, id := range a.UserIDs() {
		code, ok := stateOf(id)
		if !ok {
			continue
		}
		idx := geo.StateIndex(code)
		if idx < 0 {
			continue
		}
		if err := gs.Fold(idx, a.u.RowView(row), 1); err != nil {
			return nil, err
		}
	}
	return gs.Regions()
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
