package core

import (
	"fmt"

	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// Equation 3 with exact group sums.
//
// Under a disjoint membership, K = (LᵀL)⁻¹LᵀÛ is the per-group mean of
// Û's rows. Every path computes row g of K as fl(S_g)·fl(1/n_g): the
// exact sum S_g of the group's Û rows (a mat.Exact per organ), rounded
// once, times the rounded reciprocal of the group size. Exact sums do
// not depend on the order rows are visited, and subtracting a row
// exactly undoes adding it, so a sum maintained across any history of
// adds and removes is the sum a cold build computes over the final
// members. That is what lets the report engine carry the sums between
// refreshes and pay only for the rows that changed, while its K stays
// bit-identical to Analyze's.

// GroupSums is one Equation 3 perspective's state: each group's member
// count and the exact per-organ sum of its members' Û rows.
type GroupSums struct {
	sizes []int
	sums  []mat.Exact // groups × organ.Count
}

// NewGroupSums returns empty sums for the given number of groups.
func NewGroupSums(groups int) *GroupSums {
	return &GroupSums{sizes: make([]int, groups), sums: make([]mat.Exact, groups*organ.Count)}
}

// Fold adds a Û row to group g (sign 1) or takes one previously added
// back out (sign -1). A row with a value the sums cannot hold exactly
// (see mat.Exact) is refused with an error; on error the sums may be
// partly updated and must be rebuilt.
func (gs *GroupSums) Fold(g int, row []float64, sign int) error {
	if g < 0 || g >= len(gs.sizes) || len(row) != organ.Count {
		return fmt.Errorf("core: group %d of %d, row of %d values", g, len(gs.sizes), len(row))
	}
	acc := gs.sums[g*organ.Count : (g+1)*organ.Count]
	for j, v := range row {
		if v == 0 { // most of Û; spares the call
			continue
		}
		if err := acc[j].Add(float64(sign) * v); err != nil {
			return fmt.Errorf("core: group %d organ %d: %g: %w", g, j, v, err)
		}
	}
	gs.sizes[g] += sign
	return nil
}

// means computes K from the sums, and the groups with no members. A
// negative size, or an empty group whose sum is not zero, means a row
// was subtracted that was never added and is refused.
func (gs *GroupSums) means() (*mat.Matrix, []int, error) {
	k := mat.New(len(gs.sizes), organ.Count)
	var empty []int
	for g, n := range gs.sizes {
		acc := gs.sums[g*organ.Count : (g+1)*organ.Count]
		switch {
		case n < 0:
			return nil, nil, fmt.Errorf("core: group %d has %d members", g, n)
		case n == 0:
			for j := range acc {
				if !acc[j].IsZero() {
					return nil, nil, fmt.Errorf("core: empty group %d has a nonzero sum", g)
				}
			}
			empty = append(empty, g)
			continue
		}
		krow := k.RowView(g)
		inv := 1 / float64(n)
		for j := range krow {
			krow[j] = acc[j].Float64() * inv
		}
	}
	return k, empty, nil
}

// Organs returns the organ characterization (Figure 3) of sums grouped
// by primary organ.
func (gs *GroupSums) Organs() (*OrganCharacterization, error) {
	if len(gs.sizes) != organ.Count {
		return nil, fmt.Errorf("core: organ aggregation over %d groups, want %d", len(gs.sizes), organ.Count)
	}
	k, _, err := gs.means()
	if err != nil {
		return nil, fmt.Errorf("core: organ aggregation: %w", err)
	}
	return &OrganCharacterization{K: k, GroupSizes: append([]int(nil), gs.sizes...)}, nil
}

// Regions returns the region characterization (Figure 4) of sums
// grouped by geo.StateCodes() row. It is an error for no user to be in
// any state.
func (gs *GroupSums) Regions() (*RegionCharacterization, error) {
	codes := geo.StateCodes()
	if len(gs.sizes) != len(codes) {
		return nil, fmt.Errorf("core: region aggregation over %d groups, want %d states", len(gs.sizes), len(codes))
	}
	k, empty, err := gs.means()
	if err != nil {
		return nil, fmt.Errorf("core: region aggregation: %w", err)
	}
	if len(empty) == len(codes) {
		return nil, fmt.Errorf("core: no users could be assigned to a state")
	}
	return &RegionCharacterization{
		K:           k,
		StateCodes:  codes,
		GroupSizes:  append([]int(nil), gs.sizes...),
		EmptyStates: empty,
	}, nil
}
