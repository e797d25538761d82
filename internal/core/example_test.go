package core_test

import (
	"fmt"

	"donorsense/internal/core"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
)

// ExampleAttentionFromCounts shows the paper's §III-B user
// characterization: mention counts become a row-normalized attention
// distribution Û.
func ExampleAttentionFromCounts() {
	counts := make([]int32, organ.Count)
	counts[organ.Heart.Index()] = 3
	counts[organ.Kidney.Index()] = 1

	a, _ := core.AttentionFromCounts([]int64{42}, counts)
	row := a.Row(a.RowOf(42))
	fmt.Printf("heart=%.2f kidney=%.2f primary=%s\n",
		row[organ.Heart.Index()], row[organ.Kidney.Index()], a.PrimaryOrgan(a.RowOf(42)))
	// Output:
	// heart=0.75 kidney=0.25 primary=heart
}

// ExampleStateOrganCells_Highlight demonstrates the Figure 5
// relative-risk rule on a toy two-state population: each user is counted
// once, by state and by the organs they mention.
func ExampleStateOrganCells_Highlight() {
	c := core.NewStateOrganCells()
	add := func(state string, o organ.Organ, n int) {
		for i := 0; i < n; i++ {
			c.AddUser(geo.StateIndex(state), 1<<o.Index(), 1)
		}
	}
	add("KS", organ.Kidney, 30) // kidney-heavy Kansas
	add("KS", organ.Heart, 10)
	add("TX", organ.Heart, 150) // heart-typical Texas
	add("TX", organ.Kidney, 50)

	h, _ := c.Highlight()
	for _, o := range h.HighlightedOrgans("KS") {
		fmt.Println("Kansas highlights:", o)
	}
	// Output:
	// Kansas highlights: kidney
}

// ExampleGroupSums_Organs shows a Figure 3 organ signature: Equation 3
// averages the Û rows of the users whose primary organ is heart.
func ExampleGroupSums_Organs() {
	gs := core.NewGroupSums(organ.Count)
	row := make([]float64, organ.Count)
	row[organ.Heart.Index()] = 0.8
	row[organ.Kidney.Index()] = 0.2
	_ = gs.Fold(organ.Heart.Index(), row, 1)

	oc, _ := gs.Organs()
	rank := oc.CoMentionRank(organ.Heart)
	fmt.Println("heart users co-mention first:", rank[0])
	// Output:
	// heart users co-mention first: kidney
}
