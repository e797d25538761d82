package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"donorsense/internal/geo"
	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// TestAggregateDeltaBitIdentical drives randomized mention updates
// through the fused dirty-group recompute and asserts the resulting
// organ and region characterizations are bit-identical to full
// recomputation — including that clean group rows are carried over
// untouched, and that the cold form (no previous characterizations)
// matches too.
func TestAggregateDeltaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	codes := geo.StateCodes()

	// Build a population confined to a few states so some states stay
	// clean across updates.
	usedStates := []string{"OH", "CA", "NY", "TX", "WA", "FL"}
	shadow := map[int64][]int32{}
	stateOfMap := map[int64]string{}
	for i := 0; i < 400; i++ {
		id := int64(i + 1)
		row := make([]int32, organ.Count)
		row[rng.Intn(organ.Count)] = int32(rng.Intn(3) + 1)
		if rng.Intn(4) == 0 {
			row[rng.Intn(organ.Count)] += int32(rng.Intn(2) + 1)
		}
		shadow[id] = row
		stateOfMap[id] = usedStates[rng.Intn(len(usedStates))]
	}
	stateOf := func(id int64) (string, bool) { s, ok := stateOfMap[id]; return s, ok }

	columns := func() ([]int64, []int32) {
		sh := patchShadow(shadow)
		return sh.columns()
	}
	ids, counts := columns()
	att, err := AttentionFromCounts(ids, counts)
	if err != nil {
		t.Fatal(err)
	}
	prevOrg, err := CharacterizeOrgans(att)
	if err != nil {
		t.Fatal(err)
	}
	prevReg, err := CharacterizeRegionsFunc(att, stateOf)
	if err != nil {
		t.Fatal(err)
	}
	compareCharacterizations := func(gotOrg, wantOrg *OrganCharacterization, gotReg, wantReg *RegionCharacterization) {
		t.Helper()
		compareMatrixBits(t, "organ K", gotOrg.K.Data(), wantOrg.K.Data())
		compareMatrixBits(t, "region K", gotReg.K.Data(), wantReg.K.Data())
		if !reflect.DeepEqual(gotOrg.GroupSizes, wantOrg.GroupSizes) {
			t.Fatalf("organ group sizes %v want %v", gotOrg.GroupSizes, wantOrg.GroupSizes)
		}
		if !reflect.DeepEqual(gotReg.GroupSizes, wantReg.GroupSizes) ||
			!reflect.DeepEqual(gotReg.EmptyStates, wantReg.EmptyStates) ||
			!reflect.DeepEqual(gotReg.StateCodes, wantReg.StateCodes) {
			t.Fatalf("region sizes/empty states %v %v want %v %v", gotReg.GroupSizes, gotReg.EmptyStates, wantReg.GroupSizes, wantReg.EmptyStates)
		}
	}

	assignments := func(a *Attention) (orgAssign, regAssign []int16, orgSizes, regSizes []int) {
		orgAssign = make([]int16, a.Users())
		regAssign = make([]int16, a.Users())
		orgSizes = make([]int, organ.Count)
		regSizes = make([]int, len(codes))
		for row, id := range a.UserIDs() {
			g := a.PrimaryOrgan(row).Index()
			orgAssign[row] = int16(g)
			orgSizes[g]++
			code, _ := stateOf(id)
			s := geo.StateIndex(code)
			regAssign[row] = int16(s)
			if s >= 0 {
				regSizes[s]++
			}
		}
		return
	}

	for round := 0; round < 12; round++ {
		// Touch a handful of users in a couple of states.
		prevPrimary := map[int64]int{}
		for row, id := range att.UserIDs() {
			prevPrimary[id] = att.PrimaryOrgan(row).Index()
		}
		touched := map[int64]bool{}
		for i := 0; i < 1+rng.Intn(8); i++ {
			id := int64(rng.Intn(400) + 1)
			shadow[id][rng.Intn(organ.Count)] += int32(rng.Intn(3) + 1)
			touched[id] = true
		}
		var upIDs []int64
		for id := range touched {
			upIDs = append(upIDs, id)
		}
		for i := range upIDs {
			for j := i + 1; j < len(upIDs); j++ {
				if upIDs[j] < upIDs[i] {
					upIDs[i], upIDs[j] = upIDs[j], upIDs[i]
				}
			}
		}
		var upCounts []int32
		for _, id := range upIDs {
			upCounts = append(upCounts, shadow[id]...)
		}
		if _, err := att.Patch(upIDs, upCounts, nil); err != nil {
			t.Fatal(err)
		}

		// Dirty groups: the touched users' states, plus old+new primary
		// organs.
		orgDirty := make([]bool, organ.Count)
		regDirty := make([]bool, len(codes))
		for id := range touched {
			row := att.RowOf(id)
			orgDirty[prevPrimary[id]] = true
			orgDirty[att.PrimaryOrgan(row).Index()] = true
			code, _ := stateOf(id)
			regDirty[geo.StateIndex(code)] = true
		}

		orgAssign, regAssign, orgSizes, regSizes := assignments(att)
		gotOrg, gotReg, err := CharacterizeDelta(att,
			Grouping{Of: orgAssign, Sizes: orgSizes, Dirty: orgDirty}, prevOrg,
			Grouping{Of: regAssign, Sizes: regSizes, Dirty: regDirty}, prevReg)
		if err != nil {
			t.Fatal(err)
		}

		wantOrg, err := CharacterizeOrgans(att)
		if err != nil {
			t.Fatal(err)
		}
		wantReg, err := CharacterizeRegionsFunc(att, stateOf)
		if err != nil {
			t.Fatal(err)
		}

		compareCharacterizations(gotOrg, wantOrg, gotReg, wantReg)
		coldOrg, coldReg, err := CharacterizeDelta(att,
			Grouping{Of: orgAssign, Sizes: orgSizes}, nil,
			Grouping{Of: regAssign, Sizes: regSizes}, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareCharacterizations(coldOrg, wantOrg, coldReg, wantReg)
		prevOrg, prevReg = gotOrg, gotReg
	}
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

// TestAggregateDeltaValidation pins the cross-checks: mismatched size
// counters, malformed assignments, and a region perspective with nobody
// in it are refused.
func TestAggregateDeltaValidation(t *testing.T) {
	att, err := AttentionFromCounts([]int64{1, 2}, []int32{
		1, 0, 0, 0, 0, 0,
		0, 2, 0, 0, 0, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := CharacterizeOrgans(att)
	if err != nil {
		t.Fatal(err)
	}
	states := len(geo.StateCodes())
	regSizes := make([]int, states)
	regSizes[0] = 2
	reg := Grouping{Of: []int16{0, 0}, Sizes: regSizes}
	prevReg := &RegionCharacterization{K: mat.New(states, organ.Count)}
	goodAssign := []int16{0, 1}
	goodSizes := []int{1, 1, 0, 0, 0, 0}
	dirty := make([]bool, organ.Count)
	delta := func(org, reg Grouping) error {
		_, _, err := CharacterizeDelta(att, org, prev, reg, prevReg)
		return err
	}

	if delta(Grouping{Of: []int16{0}, Sizes: goodSizes, Dirty: dirty}, reg) == nil {
		t.Fatal("short assignment accepted")
	}
	if delta(Grouping{Of: goodAssign, Sizes: []int{2, 0, 0, 0, 0, 0}, Dirty: dirty}, reg) == nil {
		t.Fatal("size-counter mismatch accepted")
	}
	if delta(Grouping{Of: []int16{0, 99}, Sizes: goodSizes, Dirty: dirty}, reg) == nil {
		t.Fatal("out-of-range group accepted")
	}
	if delta(Grouping{Of: goodAssign, Sizes: goodSizes, Dirty: dirty}, Grouping{Of: []int16{-1, -1}, Sizes: make([]int, states)}) == nil {
		t.Fatal("region perspective with no assigned users accepted")
	}
	if err := delta(Grouping{Of: goodAssign, Sizes: goodSizes, Dirty: dirty}, reg); err != nil {
		t.Fatalf("valid no-dirty delta: %v", err)
	}
}
