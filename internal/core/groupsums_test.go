package core

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// ratMeans is the Equation 3 oracle: each group's Û rows summed exactly
// in big.Rat, rounded once to float64, then multiplied by fl(1/n).
// groupOf returns a row's group or -1.
func ratMeans(a *Attention, groups int, groupOf func(row int) int) (*mat.Matrix, []int) {
	sums := make([]*big.Rat, groups*organ.Count)
	for i := range sums {
		sums[i] = new(big.Rat)
	}
	sizes := make([]int, groups)
	for row := 0; row < a.Users(); row++ {
		g := groupOf(row)
		if g < 0 {
			continue
		}
		sizes[g]++
		for j, v := range a.Matrix().RowView(row) {
			sums[g*organ.Count+j].Add(sums[g*organ.Count+j], new(big.Rat).SetFloat64(v))
		}
	}
	k := mat.New(groups, organ.Count)
	for g, n := range sizes {
		if n == 0 {
			continue
		}
		inv := 1 / float64(n)
		for j := 0; j < organ.Count; j++ {
			s, _ := sums[g*organ.Count+j].Float64()
			k.Set(g, j, s*inv)
		}
	}
	return k, sizes
}

func compareMatrixBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// eq3Population is a random population for the Equation 3 tests: each
// user's mention counts and home state.
type eq3Population struct {
	counts patchShadow
	state  map[int64]string
}

func newEq3Population(rng *rand.Rand, users int) *eq3Population {
	usedStates := []string{"OH", "CA", "NY", "TX", "WA", "FL", "ZZ"} // ZZ: unresolvable
	p := &eq3Population{counts: patchShadow{}, state: map[int64]string{}}
	for i := 0; i < users; i++ {
		id := int64(rng.Intn(users*10) + 1)
		row := make([]int32, organ.Count)
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = int32(rng.Intn(7))
			}
		}
		row[rng.Intn(organ.Count)] += int32(1 + rng.Intn(5))
		p.counts[id] = row
		p.state[id] = usedStates[rng.Intn(len(usedStates))]
	}
	return p
}

func (p *eq3Population) lookup(id int64) (string, bool) {
	s, ok := p.state[id]
	return s, ok
}

func (p *eq3Population) stateRow(id int64) int { return geo.StateIndex(p.state[id]) }

// checkAgainstOracle asserts the organ and region characterizations are
// bitwise the big.Rat oracle's over a.
func checkAgainstOracle(t *testing.T, a *Attention, p *eq3Population, oc *OrganCharacterization, rc *RegionCharacterization) {
	t.Helper()
	wantOrg, orgSizes := ratMeans(a, organ.Count, func(row int) int { return a.PrimaryOrgan(row).Index() })
	wantReg, regSizes := ratMeans(a, len(geo.StateCodes()), func(row int) int { return p.stateRow(a.UserIDs()[row]) })
	compareMatrixBits(t, "organ K", oc.K.Data(), wantOrg.Data())
	compareMatrixBits(t, "region K", rc.K.Data(), wantReg.Data())
	if !reflect.DeepEqual(oc.GroupSizes, orgSizes) || !reflect.DeepEqual(rc.GroupSizes, regSizes) {
		t.Fatalf("group sizes %v %v, want %v %v", oc.GroupSizes, rc.GroupSizes, orgSizes, regSizes)
	}
}

// TestEquation3MatchesRatOracle checks the cold characterizations
// against the exact oracle on random populations.
func TestEquation3MatchesRatOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := newEq3Population(rng, 50+rng.Intn(500))
		a, err := AttentionFromCounts(p.counts.columns())
		if err != nil {
			t.Fatal(err)
		}
		oc, err := CharacterizeOrgans(a)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := CharacterizeRegionsFunc(a, p.lookup)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, a, p, oc, rc)
	}
}

// TestAggregateDeltaBitIdentical carries both perspectives' group sums
// through random rounds of updates, inserts and removals the way the
// report engine does — each changed or removed user's old Û row
// captured before the patch and subtracted, its new row added — and
// asserts after every round that the characterizations are bitwise the
// big.Rat oracle's and the cold path's.
func TestAggregateDeltaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := newEq3Population(rng, 400)
	a, err := AttentionFromCounts(p.counts.columns())
	if err != nil {
		t.Fatal(err)
	}
	org := NewGroupSums(organ.Count)
	reg := NewGroupSums(len(geo.StateCodes()))
	// fold adds (sign 1) or subtracts one user's row in both perspectives.
	fold := func(id int64, row []float64, prim int, sign int) {
		t.Helper()
		if err := org.Fold(prim, row, sign); err != nil {
			t.Fatal(err)
		}
		if s := p.stateRow(id); s >= 0 {
			if err := reg.Fold(s, row, sign); err != nil {
				t.Fatal(err)
			}
		}
	}
	for row, id := range a.UserIDs() {
		fold(id, a.Matrix().RowView(row), a.PrimaryOrgan(row).Index(), 1)
	}

	for round := 0; round < 30; round++ {
		type oldRow struct {
			id   int64
			row  []float64
			prim int
		}
		var olds []oldRow
		touched := map[int64]bool{}
		var removes []int64
		for i := 0; i < 1+rng.Intn(12); i++ {
			ids := a.UserIDs()
			id := ids[rng.Intn(len(ids))]
			switch {
			case touched[id]:
			case rng.Intn(4) == 0 && len(ids) > 50:
				removes = append(removes, id)
				delete(p.counts, id)
			default:
				p.counts[id][rng.Intn(organ.Count)] += int32(1 + rng.Intn(3))
			}
			touched[id] = true
		}
		for i := 0; i < rng.Intn(6); i++ { // inserts
			id := int64(rng.Intn(1<<20) + 10000)
			if _, ok := p.counts[id]; ok {
				continue
			}
			row := make([]int32, organ.Count)
			row[rng.Intn(organ.Count)] = int32(1 + rng.Intn(4))
			p.counts[id] = row
			p.state[id] = []string{"OH", "KS", "ZZ"}[rng.Intn(3)]
			touched[id] = true
		}
		var upIDs []int64
		for id := range touched {
			if r := a.RowOf(id); r >= 0 {
				olds = append(olds, oldRow{id, a.Row(r), a.PrimaryOrgan(r).Index()})
			}
			if _, live := p.counts[id]; live {
				upIDs = append(upIDs, id)
			}
		}
		sort.Slice(upIDs, func(i, j int) bool { return upIDs[i] < upIDs[j] })
		sort.Slice(removes, func(i, j int) bool { return removes[i] < removes[j] })
		var upCounts []int32
		for _, id := range upIDs {
			upCounts = append(upCounts, p.counts[id]...)
		}
		if _, err := a.Patch(upIDs, upCounts, removes); err != nil {
			t.Fatal(err)
		}
		for _, o := range olds {
			fold(o.id, o.row, o.prim, -1)
		}
		for _, id := range upIDs {
			r := a.RowOf(id)
			fold(id, a.Matrix().RowView(r), a.PrimaryOrgan(r).Index(), 1)
		}

		oc, err := org.Organs()
		if err != nil {
			t.Fatal(err)
		}
		rc, err := reg.Regions()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, a, p, oc, rc)
		coldOrg, err := CharacterizeOrgans(a)
		if err != nil {
			t.Fatal(err)
		}
		coldReg, err := CharacterizeRegionsFunc(a, p.lookup)
		if err != nil {
			t.Fatal(err)
		}
		compareMatrixBits(t, "carried vs cold organ K", oc.K.Data(), coldOrg.K.Data())
		compareMatrixBits(t, "carried vs cold region K", rc.K.Data(), coldReg.K.Data())
		if !reflect.DeepEqual(rc.EmptyStates, coldReg.EmptyStates) {
			t.Fatalf("empty states %v, cold %v", rc.EmptyStates, coldReg.EmptyStates)
		}
	}
}

// TestAggregateDeltaValidation pins what the group sums refuse: group
// indexes and row widths that do not fit, values an exact sum cannot
// hold (NaN, ±Inf, out of range), a subtraction that empties a group
// without cancelling its sum or takes a size below zero, and a region
// perspective with nobody in it.
func TestAggregateDeltaValidation(t *testing.T) {
	row := []float64{0.5, 0.25, 0.25, 0, 0, 0}
	gs := NewGroupSums(organ.Count)
	if gs.Fold(-1, row, 1) == nil || gs.Fold(organ.Count, row, 1) == nil {
		t.Fatal("out-of-range group accepted")
	}
	if gs.Fold(0, row[:5], 1) == nil {
		t.Fatal("short row accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Ldexp(1, 70), math.Ldexp(1, -140)} {
		bad := append([]float64(nil), row...)
		bad[3] = v
		if err := NewGroupSums(organ.Count).Fold(1, bad, 1); !errors.Is(err, mat.ErrInexact) {
			t.Fatalf("row with %g: %v, want ErrInexact", v, err)
		}
	}

	if err := gs.Fold(2, row, 1); err != nil {
		t.Fatal(err)
	}
	other := []float64{0.5, 0.5, 0, 0, 0, 0}
	if err := gs.Fold(2, other, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := gs.Organs(); err == nil {
		t.Fatal("emptied group with a nonzero sum accepted")
	}
	neg := NewGroupSums(organ.Count)
	if err := neg.Fold(1, []float64{0, 0, 0, 0, 0, 0}, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := neg.Organs(); err == nil {
		t.Fatal("negative group size accepted")
	}
	if _, err := NewGroupSums(len(geo.StateCodes())).Regions(); err == nil {
		t.Fatal("region perspective with no assigned users accepted")
	}
	if _, err := NewGroupSums(3).Organs(); err == nil {
		t.Fatal("organ perspective of the wrong width accepted")
	}
}

// TestEquation3PermutationInvariant relabels users by a random
// permutation of their ids, which permutes Û's rows and so the order
// every group is summed in, and asserts K is bitwise unchanged; so is
// summing the rows in a shuffled order. A left-to-right float sum would
// differ in the last bits; only an exact sum is order-free.
func TestEquation3PermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := newEq3Population(rng, 600)
	// Unique maxima keep each user's primary organ independent of its id
	// (ties break by an id hash).
	for _, row := range p.counts {
		max, at := int32(-1), 0
		for j, v := range row {
			if v > max {
				max, at = v, j
			}
		}
		row[at] = max + 1
	}
	a, err := AttentionFromCounts(p.counts.columns())
	if err != nil {
		t.Fatal(err)
	}
	oc, err := CharacterizeOrgans(a)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := CharacterizeRegionsFunc(a, p.lookup)
	if err != nil {
		t.Fatal(err)
	}

	ids := a.UserIDs()
	perm := rng.Perm(len(ids))
	q := &eq3Population{counts: patchShadow{}, state: map[int64]string{}}
	for i, id := range ids {
		to := ids[perm[i]]
		q.counts[to], q.state[to] = p.counts[id], p.state[id]
	}
	b, err := AttentionFromCounts(q.counts.columns())
	if err != nil {
		t.Fatal(err)
	}
	poc, err := CharacterizeOrgans(b)
	if err != nil {
		t.Fatal(err)
	}
	prc, err := CharacterizeRegionsFunc(b, q.lookup)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrixBits(t, "permuted organ K", poc.K.Data(), oc.K.Data())
	compareMatrixBits(t, "permuted region K", prc.K.Data(), rc.K.Data())

	shuffled := NewGroupSums(organ.Count)
	for _, row := range rng.Perm(a.Users()) {
		if err := shuffled.Fold(a.PrimaryOrgan(row).Index(), a.Matrix().RowView(row), 1); err != nil {
			t.Fatal(err)
		}
	}
	soc, err := shuffled.Organs()
	if err != nil {
		t.Fatal(err)
	}
	compareMatrixBits(t, "shuffled organ K", soc.K.Data(), oc.K.Data())
}

// TestEquation3InsertDeleteRoundTrip adds users to carried sums and
// takes them out again, in a different order: K must return bitwise to
// where it started.
func TestEquation3InsertDeleteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := newEq3Population(rng, 300)
	a, err := AttentionFromCounts(p.counts.columns())
	if err != nil {
		t.Fatal(err)
	}
	gs := NewGroupSums(organ.Count)
	for row := 0; row < a.Users(); row++ {
		if err := gs.Fold(a.PrimaryOrgan(row).Index(), a.Matrix().RowView(row), 1); err != nil {
			t.Fatal(err)
		}
	}
	start, err := gs.Organs()
	if err != nil {
		t.Fatal(err)
	}
	extra := make([][]float64, 40)
	for i := range extra {
		row := make([]float64, organ.Count)
		cnt := make([]int32, organ.Count)
		for j := range cnt {
			cnt[j] = int32(rng.Intn(9))
		}
		cnt[0]++
		normalizeInto(row, cnt)
		extra[i] = row
		if err := gs.Fold(i%organ.Count, row, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rng.Perm(len(extra)) {
		if err := gs.Fold(i%organ.Count, extra[i], -1); err != nil {
			t.Fatal(err)
		}
	}
	end, err := gs.Organs()
	if err != nil {
		t.Fatal(err)
	}
	compareMatrixBits(t, "organ K after insert-then-delete", end.K.Data(), start.K.Data())
}
