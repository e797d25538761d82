package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"donorsense/internal/geo"
	"donorsense/internal/organ"
)

// Metamorphic tests: each transforms the input in a way whose effect on
// the paper's output is known, and checks that effect. The reference
// oracle in internal/report reads the same input as the code under test,
// so it cannot catch a fault that treats states or users unevenly; these
// relations can.

// TestHighlightRelabelledStates feeds the Figure 5 cells the same users
// with their state rows permuted. Equation 4 sees each state only
// through its own counts and the national totals, so Highlight's rows
// must move with the permutation and nothing else may change: every RR,
// its CI, the continuity estimate, every Highlighted verdict, the
// corrected highlight counts and the winner-takes-all baseline.
func TestHighlightRelabelledStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	codes := geo.StateCodes()
	// The last few states stay empty, and the rest get users on a skewed
	// draw, so that the fixture has undefined and thin cells as well as
	// significant ones. Each state favours one organ.
	populated := len(codes) - 4
	orig, relabelled := NewStateOrganCells(), NewStateOrganCells()
	perm := rng.Perm(len(codes))
	for i := 0; i < 6000; i++ {
		r := rng.Float64()
		s := int(r * r * r * float64(populated))
		var mask uint8
		for j := 0; j < organ.Count; j++ {
			p := 0.2
			if j == s%organ.Count {
				p = 0.5
			}
			if rng.Float64() < p {
				mask |= 1 << j
			}
		}
		orig.AddUser(s, mask, 1)
		relabelled.AddUser(perm[s], mask, 1)
	}
	want, err := orig.Highlight()
	if err != nil {
		t.Fatal(err)
	}
	got, err := relabelled.Highlight()
	if err != nil {
		t.Fatal(err)
	}

	var highlighted, plain, undefined int
	for s := range codes {
		for j := 0; j < organ.Count; j++ {
			w, g := want.Risks[s][j], got.Risks[perm[s]][j]
			if g.StateCode != codes[perm[s]] {
				t.Fatalf("row %d is labelled %s, want %s", perm[s], g.StateCode, codes[perm[s]])
			}
			g.StateCode = w.StateCode
			if g != w {
				t.Fatalf("%s/%s moved to %s: got %+v, want %+v", w.StateCode, w.Organ, codes[perm[s]], g, w)
			}
			switch {
			case w.Highlighted():
				highlighted++
			case w.Defined:
				plain++
			default:
				undefined++
			}
		}
	}
	if highlighted == 0 || plain == 0 || undefined == 0 {
		t.Fatalf("fixture too tame: %d highlighted, %d defined but plain, %d undefined cells",
			highlighted, plain, undefined)
	}

	for _, m := range []Correction{NoCorrection, BHCorrection, BonferroniCorrection} {
		wa, err := want.AdjustedHighlights(m)
		if err != nil {
			t.Fatal(err)
		}
		ga, err := got.AdjustedHighlights(m)
		if err != nil {
			t.Fatal(err)
		}
		for s, code := range codes {
			if !reflect.DeepEqual(ga[codes[perm[s]]], wa[code]) {
				t.Errorf("%s: %s highlights %v, relabelled as %s %v", m, code, wa[code], codes[perm[s]], ga[codes[perm[s]]])
			}
		}
	}

	wantW, err := orig.WinnerTakesAll()
	if err != nil {
		t.Fatal(err)
	}
	gotW, err := relabelled.WinnerTakesAll()
	if err != nil {
		t.Fatal(err)
	}
	for s, code := range codes {
		if gotW[codes[perm[s]]] != wantW[code] {
			t.Errorf("winner-takes-all for %s is %v, relabelled as %s %v", code, wantW[code], codes[perm[s]], gotW[codes[perm[s]]])
		}
	}
}

// TestDuplicatedUsers counts every user twice, the copy under a fresh
// id. Equation 3's group means are ratios of sums over group sizes, and
// both double exactly, so the Figure 3 and Figure 4 signatures must stay
// bitwise the same. Equation 4's 2×2 tables double too: every defined
// RR keeps its point estimate bit for bit, and its standard error
// shrinks, so every confidence interval narrows around it.
func TestDuplicatedUsers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := newEq3Population(rng, 2000)
	// A copy's primary organ must equal its original's.
	p.uniqueMaxima()
	const offset = int64(1) << 40
	twice := &eq3Population{counts: patchShadow{}, state: map[int64]string{}}
	for id, row := range p.counts {
		for _, to := range []int64{id, id + offset} {
			twice.counts[to], twice.state[to] = row, p.state[id]
		}
	}

	a, err := AttentionFromCounts(p.counts.columns())
	if err != nil {
		t.Fatal(err)
	}
	b, err := AttentionFromCounts(twice.counts.columns())
	if err != nil {
		t.Fatal(err)
	}
	if b.Users() != 2*a.Users() {
		t.Fatalf("duplicated Û has %d rows, want %d", b.Users(), 2*a.Users())
	}

	oc, err := organsOf(a)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := organsOf(b)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrixBits(t, "duplicated organ K", doc.K.Data(), oc.K.Data())
	rc, err := regionsOf(a, p.state)
	if err != nil {
		t.Fatal(err)
	}
	drc, err := regionsOf(b, twice.state)
	if err != nil {
		t.Fatal(err)
	}
	compareMatrixBits(t, "duplicated region K", drc.K.Data(), rc.K.Data())
	for g, n := range oc.GroupSizes {
		if doc.GroupSizes[g] != 2*n {
			t.Errorf("organ group %d has %d members, want %d", g, doc.GroupSizes[g], 2*n)
		}
	}
	for g, n := range rc.GroupSizes {
		if drc.GroupSizes[g] != 2*n {
			t.Errorf("state group %d has %d members, want %d", g, drc.GroupSizes[g], 2*n)
		}
	}

	want, err := cellsOf(a, p.state).Highlight()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cellsOf(b, twice.state).Highlight()
	if err != nil {
		t.Fatal(err)
	}
	defined := 0
	for s, row := range want.Risks {
		for j, w := range row {
			g := got.Risks[s][j]
			if g.Defined != w.Defined {
				t.Fatalf("%s/%s: defined %v, duplicated %v", w.StateCode, w.Organ, w.Defined, g.Defined)
			}
			if !w.Defined {
				continue
			}
			defined++
			if math.Float64bits(g.RR.RR) != math.Float64bits(w.RR.RR) || math.Float64bits(g.RR.LogRR) != math.Float64bits(w.RR.LogRR) {
				t.Errorf("%s/%s: RR %v, duplicated %v", w.StateCode, w.Organ, w.RR.RR, g.RR.RR)
			}
			if !(g.RR.SE < w.RR.SE && g.RR.Lower > w.RR.Lower && g.RR.Upper < w.RR.Upper) {
				t.Errorf("%s/%s: CI [%v, %v] (SE %v) did not narrow to [%v, %v] (SE %v)", w.StateCode, w.Organ,
					w.RR.Lower, w.RR.Upper, w.RR.SE, g.RR.Lower, g.RR.Upper, g.RR.SE)
			}
		}
	}
	if defined == 0 {
		t.Fatal("fixture has no defined RR cell")
	}
}
