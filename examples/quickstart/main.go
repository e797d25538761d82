// Quickstart: synthesize a corpus, run the collection pipeline, and print
// the headline results of the paper — the dataset statistics (Table I),
// the organ popularity ranking with its OPTN validation (Figure 2a), and
// the organs each state over-discusses (Figure 5).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
)

func main() {
	// 1. A synthetic year of organ-donation tweets (scale 0.2 ≈ 14k US
	//    users; use 1.0 for the paper's full magnitude).
	corpus := gen.Generate(gen.DefaultConfig(0.2))

	// 2. Collect → augment → filter: every tweet runs through the keyword
	//    predicate and the geocoder; USA users are retained.
	dataset := pipeline.NewDataset()
	for _, tweet := range corpus.Tweets {
		dataset.Process(tweet)
	}

	// 3. The paper's evaluation in one call (the model-selection sweep
	//    is skipped: it is the slow part and nothing below reads it).
	cfg := report.DefaultAnalysisConfig()
	cfg.SweepKs = nil
	analysis, err := report.Analyze(dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Table I.
	fmt.Print(report.TableIText(analysis.Stats))

	// 5. Figure 2(a): organ popularity and the transplant-count
	//    validation.
	fmt.Println()
	fmt.Print(report.UsersPerOrganText(analysis.Popularity))
	fmt.Print(report.SpearmanText(analysis.Spearman))

	// 6. Figure 5: relative-risk highlighting per state.
	fmt.Println()
	fmt.Print(report.HighlightText(analysis.Highlight))

	// 7. The paper's headline anomaly: Kansas kidney conversations.
	fmt.Println()
	for _, o := range analysis.Highlight.HighlightedOrgans("KS") {
		if o == organ.Kidney {
			fmt.Println("Kansas shows a significant excess of kidney conversations,")
			fmt.Println("matching its documented surplus of deceased kidney donors.")
		}
	}
}
