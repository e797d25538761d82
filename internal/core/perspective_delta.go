package core

import (
	"fmt"

	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// Incremental Equation 3: recompute only the dirty group rows of K.
//
// K's rows are floating-point means, and float addition is not
// associative — a per-group sum is bit-identical to Aggregate's only
// when accumulated over the same members in the same (ascending row)
// order. So unlike the integer layer (StateOrganCells, MentionAccum),
// group rows are not subtracted in place: a group whose membership or
// member rows changed is marked dirty and its row is recomputed from
// scratch with Aggregate's exact summation order, while clean rows are
// carried over bit-for-bit from the previous characterization. The
// required invariant, which callers (the report engine) maintain and the
// differential tests enforce: every attention row that was patched, and
// both the old and new group of every row whose assignment moved, dirty
// the affected groups. Group sizes are plain integers and are maintained
// subtractably by the caller; the pass cross-checks them against the
// assignment vectors.

// Grouping is one perspective's row-aligned membership, as the caller
// maintains it: Of[i] is Û row i's group (-1 = unassigned), Sizes the
// per-group member counts, and Dirty the groups to recompute (nil
// recomputes every group).
type Grouping struct {
	Of    []int16
	Sizes []int
	Dirty []bool
}

// CharacterizeDelta computes both Equation 3 aggregations, the organ
// perspective (Figure 3, org.Of = each row's primary organ, never -1)
// and the region perspective (Figure 4, reg.Of = each row's
// geo.StateCodes() row), in one ascending sweep over Û. Dirty group
// rows are summed over their members in row order, exactly as
// mat.Membership.Aggregate sums them, and clean rows are copied from
// prevOrg/prevReg. With nil previous characterizations every group is
// summed, which makes this the cold build too. The same sweep counts
// each group's members and refuses sizes that disagree with them.
func CharacterizeDelta(a *Attention, org Grouping, prevOrg *OrganCharacterization, reg Grouping, prevReg *RegionCharacterization) (*OrganCharacterization, *RegionCharacterization, error) {
	codes := geo.StateCodes()
	nStates := len(codes)
	var prevOK, prevRK *mat.Matrix
	if prevOrg != nil {
		prevOK = prevOrg.K
	}
	if prevReg != nil {
		prevRK = prevReg.K
	}
	orgK, orgDirty, err := startAggregate(a, org, organ.Count, prevOK)
	if err != nil {
		return nil, nil, fmt.Errorf("core: organ aggregation: %w", err)
	}
	regK, regDirty, err := startAggregate(a, reg, nStates, prevRK)
	if err != nil {
		return nil, nil, fmt.Errorf("core: region aggregation: %w", err)
	}
	assigned := 0
	for _, n := range reg.Sizes {
		assigned += n
	}
	if assigned == 0 {
		return nil, nil, fmt.Errorf("core: no users could be assigned to a state")
	}

	var orgHist [organ.Count]int
	regHist := make([]int, nStates)
	od, rd := orgK.Data(), regK.Data()
	data := a.u.Data()
	regOf := reg.Of[:len(org.Of)]
	for i, g := range org.Of {
		u := (*[organ.Count]float64)(data[i*organ.Count:])
		if g < 0 || int(g) >= organ.Count {
			return nil, nil, fmt.Errorf("core: organ aggregation: row %d assigned to group %d of %d", i, g, organ.Count)
		}
		orgHist[g]++
		if orgDirty[g] {
			addRow((*[organ.Count]float64)(od[int(g)*organ.Count:]), u)
		}
		s := regOf[i]
		if s < -1 || int(s) >= nStates {
			return nil, nil, fmt.Errorf("core: region aggregation: row %d assigned to group %d of %d", i, s, nStates)
		}
		if s >= 0 {
			regHist[s]++
			if regDirty[s] {
				addRow((*[organ.Count]float64)(rd[int(s)*organ.Count:]), u)
			}
		}
	}
	if err := finishAggregate(orgK, orgHist[:], org.Sizes, orgDirty); err != nil {
		return nil, nil, fmt.Errorf("core: organ aggregation: %w", err)
	}
	if err := finishAggregate(regK, regHist, reg.Sizes, regDirty); err != nil {
		return nil, nil, fmt.Errorf("core: region aggregation: %w", err)
	}

	organs := &OrganCharacterization{K: orgK, GroupSizes: append([]int(nil), org.Sizes...)}
	regions := &RegionCharacterization{
		K:          regK,
		StateCodes: codes,
		GroupSizes: append([]int(nil), reg.Sizes...),
	}
	for s, n := range reg.Sizes {
		if n == 0 {
			regions.EmptyStates = append(regions.EmptyStates, s)
		}
	}
	return organs, regions, nil
}

// startAggregate checks one grouping's shapes and returns the new K with
// its clean rows copied from prevK, plus the effective dirty set.
func startAggregate(a *Attention, gr Grouping, groups int, prevK *mat.Matrix) (*mat.Matrix, []bool, error) {
	if len(gr.Of) != a.Users() {
		return nil, nil, fmt.Errorf("assignment has %d rows, attention has %d", len(gr.Of), a.Users())
	}
	if len(gr.Sizes) != groups {
		return nil, nil, fmt.Errorf("sizes length %d, want %d groups", len(gr.Sizes), groups)
	}
	k := mat.New(groups, organ.Count)
	dirty := gr.Dirty
	if prevK == nil || dirty == nil {
		dirty = make([]bool, groups)
		for g := range dirty {
			dirty[g] = true
		}
		return k, dirty, nil
	}
	if len(dirty) != groups {
		return nil, nil, fmt.Errorf("dirty length %d, want %d groups", len(dirty), groups)
	}
	if prevK.Rows() != groups || prevK.Cols() != organ.Count {
		return nil, nil, fmt.Errorf("previous K is %d×%d, want %d×%d", prevK.Rows(), prevK.Cols(), groups, organ.Count)
	}
	for g := 0; g < groups; g++ {
		if !dirty[g] {
			copy(k.RowView(g), prevK.RowView(g))
		}
	}
	return k, dirty, nil
}

// finishAggregate cross-checks the swept member counts against the
// caller's size counters (a mismatch means the caller broke the
// dirtiness invariant) and turns the dirty sums into means with
// Aggregate's multiply-by-reciprocal.
func finishAggregate(k *mat.Matrix, hist, sizes []int, dirty []bool) error {
	for g, n := range hist {
		if n != sizes[g] {
			return fmt.Errorf("group %d size counter %d, assignment has %d", g, sizes[g], n)
		}
	}
	for g, n := range sizes {
		if !dirty[g] || n == 0 {
			continue
		}
		krow := k.RowView(g)
		inv := 1 / float64(n)
		for j := range krow {
			krow[j] *= inv
		}
	}
	return nil
}

// addRow adds one Û row into a K row, element by element. It is
// unrolled for the paper's six organs; the declaration below stops the
// build if organ.Count ever changes.
var _ [6]float64 = [organ.Count]float64{}

func addRow(dst, src *[organ.Count]float64) {
	dst[0] += src[0]
	dst[1] += src[1]
	dst[2] += src[2]
	dst[3] += src[3]
	dst[4] += src[4]
	dst[5] += src[5]
}
