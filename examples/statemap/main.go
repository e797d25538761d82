// Statemap reproduces the paper's geographic analysis in depth: the
// Figure 5 relative-risk state map with the paper's three inset states
// (Louisiana, Massachusetts, Rhode Island), the Kansas/Midwest kidney
// validation against the OPTN donor-surplus finding, and the Figure 6
// hierarchical clustering of states into organ-conversation zones.
//
//	go run ./examples/statemap [-scale 0.5]
package main

import (
	"flag"
	"fmt"
	"log"

	"donorsense/internal/cluster"
	"donorsense/internal/gen"
	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
)

func main() {
	scale := flag.Float64("scale", 0.5, "corpus scale; RR significance needs >= 0.5")
	flag.Parse()

	fmt.Printf("building dataset at scale %g...\n\n", *scale)
	corpus := gen.Generate(gen.DefaultConfig(*scale))
	dataset := pipeline.NewDataset()
	for _, tweet := range corpus.Tweets {
		dataset.Process(tweet)
	}
	cfg := report.DefaultAnalysisConfig()
	cfg.SweepKs = nil
	analysis, err := report.Analyze(dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// --- Figure 5: the RR map ---
	highlights := analysis.Highlight
	fmt.Print(report.HighlightText(highlights))

	// --- The paper's three insets: every organ's RR with its CI ---
	for _, inset := range []string{"LA", "MA", "RI"} {
		fmt.Printf("\ninset %s (significant RRs marked *):\n", inset)
		row := geo.StateIndex(inset)
		for _, r := range highlights.Risks[row] {
			if !r.Defined {
				fmt.Printf("  %-10s undefined (no mentions)\n", r.Organ)
				continue
			}
			mark := " "
			if r.Highlighted() {
				mark = "*"
			}
			fmt.Printf("  %-10s RR=%.2f [%.2f, %.2f] %s\n", r.Organ, r.RR.RR, r.RR.Lower, r.RR.Upper, mark)
		}
	}

	// --- Kansas validation (§IV-B1) ---
	fmt.Println("\nMidwest kidney check (Cao et al. 2016: only Kansas has a")
	fmt.Println("deceased kidney-donor surplus):")
	for _, code := range highlights.StatesHighlighting(organ.Kidney) {
		st, _ := geo.StateByCode(code)
		marker := ""
		if st.Region == geo.Midwest {
			marker = "  <-- Midwest"
		}
		fmt.Printf("  %s (%s)%s\n", code, st.Region, marker)
	}

	// --- Figure 6: clustering states into zones ---
	// Tiny states are dominated by sampling noise and would form outlier
	// singletons, so cluster only states with a meaningful user count
	// (the paper's 72k users gave every state a usable sample).
	regions := analysis.Regions
	var rows [][]float64
	var codes []string
	for i, code := range regions.StateCodes {
		if regions.GroupSizes[i] >= 60 {
			rows = append(rows, regions.K.Row(i))
			codes = append(codes, code)
		}
	}
	dist, err := cluster.PairwiseMatrix(rows, cluster.Bhattacharyya, 0)
	if err != nil {
		log.Fatal(err)
	}
	dg, err := cluster.Agglomerative(dist, cluster.AverageLinkage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(report.SimilarityHeatmapText(dist, codes, dg))

	// The paper reads Figure 6 as contiguous "zones of organ-related
	// conversation" along the leaf order (liver → lung → kidney → heart).
	// Annotate each leaf with the organ it leans toward (max RR point
	// estimate) to make the bands visible.
	fmt.Println("\nleaf order with each state's leaning organ (max RR):")
	for _, i := range dg.LeafOrder() {
		code := codes[i]
		row := geo.StateIndex(code)
		bestOrgan, bestRR := organ.Heart, 0.0
		for _, r := range highlights.Risks[row] {
			if r.Defined && r.RR.RR > bestRR {
				bestRR, bestOrgan = r.RR.RR, r.Organ
			}
		}
		fmt.Printf("  %-4s leans %-10s (RR=%.2f)\n", code, bestOrgan, bestRR)
	}
}
