// Command benchtables regenerates every table and figure of the paper's
// evaluation in one run and prints them in paper order, together with the
// ablation comparisons DESIGN.md calls out. It is the programmatic
// companion to the root-level Go benchmarks: the benches time the
// computations, benchtables shows their output.
//
//	benchtables -scale 0.5          # ≈36k US users; CI significance holds
//	benchtables -scale 1.0          # paper-magnitude run (≈1M tweets)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/temporal"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

func main() {
	scale := flag.Float64("scale", 0.5, "corpus scale (1.0 = paper magnitude)")
	seed := flag.Uint64("seed", 1, "random seed")
	k := flag.Int("k", 12, "user cluster count")
	flag.Parse()
	if err := run(*scale, *seed, *k); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(scale float64, seed uint64, k int) error {
	start := time.Now()
	cfg := gen.DefaultConfig(scale)
	cfg.Seed = seed
	fmt.Fprintf(os.Stderr, "[1/3] generating corpus at scale %g...\n", scale)
	corpus := gen.Generate(cfg)

	fmt.Fprintf(os.Stderr, "[2/3] running pipeline over %d tweets...\n", len(corpus.Tweets))
	d := pipeline.NewDataset()
	series, err := temporal.NewSeries(cfg.Start, cfg.Days)
	if err != nil {
		return err
	}
	d.OnUSTweet = func(tw twitter.Tweet, ex text.Extraction) {
		series.Observe(tw, ex)
	}
	rejected, _, _ := d.ProcessAll(corpus.Tweets, 0)
	fmt.Fprintf(os.Stderr, "      rejected %d near-miss tweets, retained %d US tweets from %d users\n",
		rejected, d.USTweets(), d.Users())

	fmt.Fprintln(os.Stderr, "[3/3] analyzing...")
	acfg := report.DefaultAnalysisConfig()
	acfg.KUsers = k
	a, err := report.Analyze(d, acfg)
	if err != nil {
		return err
	}
	fmt.Print(a.Render())

	fmt.Println("\n=== Ablations ===")
	printDistanceAblation(a)
	printBaselineAblation(a)

	fmt.Println("\n=== Extensions ===")
	printCorrections(a)
	printTemporal(series, scale)

	fmt.Fprintf(os.Stderr, "total time: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// printCorrections shows how the Figure 5 map shrinks under
// multiple-testing control (the paper applies none).
func printCorrections(a *report.Analysis) {
	counts := map[string]int{}
	for _, m := range []core.Correction{core.NoCorrection, core.BHCorrection, core.BonferroniCorrection} {
		adj, err := a.Highlight.AdjustedHighlights(m)
		if err != nil {
			return
		}
		counts[m.String()] = core.CountHighlights(adj)
	}
	fmt.Print(report.CorrectionComparisonText(counts))
}

// printTemporal runs the burst detector over the collected series.
func printTemporal(series *temporal.Series, scale float64) {
	det := temporal.DefaultDetectorConfig()
	if scale < 0.4 {
		det.Threshold = 2.5
		det.MinCount = 8
	}
	bursts, err := temporal.DetectAll(series, det)
	if err != nil {
		fmt.Fprintln(os.Stderr, "temporal:", err)
		return
	}
	fmt.Print(report.TemporalText(series, bursts))
}

// printDistanceAblation contrasts state clusterings under the paper's
// Bhattacharyya distance and the alternatives (§IV-B2's design choice).
func printDistanceAblation(a *report.Analysis) {
	rows, codes := a.Regions.NonEmptyRows()
	if len(rows) < 4 {
		return
	}
	fmt.Println("Distance-metric ablation (state clustering, cut at 4):")
	for _, metric := range []struct {
		name string
		dist cluster.Distance
	}{
		{"bhattacharyya", cluster.Bhattacharyya},
		{"hellinger", cluster.Hellinger},
		{"euclidean", cluster.Euclidean},
		{"jensenshannon", cluster.JensenShannon},
	} {
		m, err := cluster.PairwiseMatrix(rows, metric.dist, 0)
		if err != nil {
			continue
		}
		dg, err := cluster.Agglomerative(m, cluster.AverageLinkage)
		if err != nil {
			continue
		}
		labels, err := dg.Cut(4)
		if err != nil {
			continue
		}
		sizes := map[int]int{}
		ksLabel := -1
		for i, l := range labels {
			sizes[l]++
			if codes[i] == "KS" {
				ksLabel = l
			}
		}
		fmt.Printf("  %-14s cluster sizes %v, Kansas in cluster of %d states\n",
			metric.name, sizesList(sizes), sizes[ksLabel])
	}
}

func sizesList(m map[int]int) []int {
	out := make([]int, len(m))
	for l, n := range m {
		if l < len(out) {
			out[l] = n
		}
	}
	return out
}

// printBaselineAblation contrasts RR highlighting with the
// winner-takes-all baseline (§IV-B1's design choice).
func printBaselineAblation(a *report.Analysis) {
	fmt.Println("RR vs winner-takes-all baseline:")
	heartWins, total := 0, 0
	for _, code := range a.Highlight.StateCodes {
		if a.Baseline[code] == organ.Organ(-1) {
			continue
		}
		total++
		if a.Baseline[code] == organ.Heart {
			heartWins++
		}
	}
	fmt.Printf("  winner-takes-all: heart wins %d/%d states (prevalence blind spot)\n", heartWins, total)
	for _, o := range organ.All() {
		states := a.Highlight.StatesHighlighting(o)
		if len(states) > 0 {
			fmt.Printf("  RR highlights %-10s %v\n", o.String()+":", states)
		}
	}
}
