// Campaign demonstrates the intervention-design use the paper motivates:
// given a target organ (say, a lung-donation drive), use the
// characterization to decide (a) which states to run the campaign in and
// (b) which user segments to address — including the paper's §IV-A
// insight that users focused on one organ can be receptive to campaigns
// for a co-mentioned organ ("users who are more aware of lung transplant
// may be more influenced to get involved in programs related to heart
// transplant than kidney transplant").
//
//	go run ./examples/campaign [-organ lung]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"donorsense/internal/gen"
	"donorsense/internal/influence"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
)

func main() {
	organName := flag.String("organ", "lung", "campaign target organ")
	scale := flag.Float64("scale", 0.3, "corpus scale")
	flag.Parse()
	target, ok := organ.Parse(*organName)
	if !ok {
		log.Fatalf("unknown organ %q", *organName)
	}

	corpus := gen.Generate(gen.DefaultConfig(*scale))
	dataset := pipeline.NewDataset()
	for _, tweet := range corpus.Tweets {
		dataset.Process(tweet)
	}
	// The paper's evaluation in one call; the campaign reads Figures 3,
	// 4 and 7 from it (the model-selection sweep is skipped).
	cfg := report.DefaultAnalysisConfig()
	cfg.SweepKs = nil
	analysis, err := report.Analyze(dataset, cfg)
	if err != nil {
		log.Fatal(err)
	}
	attention := analysis.Attention

	fmt.Printf("=== Campaign planner: %s donation ===\n\n", target)

	// 1. Where is awareness already high (reinforce) and where is it low
	//    (greenfield)? Rank states by attention to the target organ.
	regions := analysis.Regions
	type stateScore struct {
		code  string
		score float64
		users int
	}
	var scored []stateScore
	for i, code := range regions.StateCodes {
		if regions.GroupSizes[i] < 30 {
			continue // too few users to trust
		}
		scored = append(scored, stateScore{code, regions.K.At(i, target.Index()), regions.GroupSizes[i]})
	}
	sort.Slice(scored, func(i, j int) bool { return scored[i].score > scored[j].score })
	fmt.Printf("states by %s attention (n ≥ 30 users):\n", target)
	show := func(list []stateScore) {
		for _, s := range list {
			fmt.Printf("  %-4s attention=%.3f users=%d\n", s.code, s.score, s.users)
		}
	}
	fmt.Println(" highest (reinforce existing awareness):")
	show(scored[:min(5, len(scored))])
	fmt.Println(" lowest (greenfield for outreach):")
	show(scored[max(0, len(scored)-5):])

	// 2. Which other organs' communities are most receptive? Use the
	//    Figure 3 co-mention structure: communities that already devote
	//    attention to the target organ.
	organs := analysis.Organs
	fmt.Printf("\ncross-organ receptiveness (attention of each community to %s):\n", target)
	type recept struct {
		o organ.Organ
		v float64
	}
	var rs []recept
	for _, o := range organ.All() {
		if o == target {
			continue
		}
		rs = append(rs, recept{o, organs.Signature(o)[target.Index()]})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].v > rs[j].v })
	for _, r := range rs {
		fmt.Printf("  %-10s community: %.4f of its attention on %s (n=%d users)\n",
			r.o, r.v, target, organs.GroupSizes[r.o.Index()])
	}

	// 3. Which user segments to message? Rank the Figure 7 user
	//    clusters (K-Means, k = 12) by centroid attention to the target
	//    organ.
	res := analysis.Clusters
	type seg struct {
		id    int
		v     float64
		size  int
		share float64
	}
	var segs []seg
	for c := range res.Centroids {
		segs = append(segs, seg{
			id: c, v: res.Centroids[c][target.Index()],
			size:  res.Sizes[c],
			share: float64(res.Sizes[c]) / float64(attention.Users()),
		})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].v > segs[j].v })
	fmt.Println("\nuser segments (K-Means, k=12) ranked by target attention:")
	for _, s := range segs[:4] {
		fmt.Printf("  cluster %2d: %.3f attention, %d users (%.1f%% of population)\n",
			s.id, s.v, s.size, s.share*100)
	}
	reach := 0
	for _, s := range segs[:4] {
		reach += s.size
	}
	fmt.Printf("\ntargeting the top 4 segments reaches %d users\n", reach)

	// 4. Which accounts should seed the campaign? Simulate diffusion over
	//    a synthetic follower graph (state + interest homophily, loud
	//    hubs) and compare greedy seed selection against the baselines —
	//    the paper's "models of social influence" direction.
	nodes := make([]influence.Node, 0, attention.Users())
	dataset.EachUser(func(u *pipeline.UserRecord) {
		row := attention.RowOf(u.ID)
		if row < 0 {
			return
		}
		nodes = append(nodes, influence.Node{
			UserID:    u.ID,
			StateCode: u.StateCode,
			Primary:   attention.PrimaryOrgan(row),
			Activity:  u.Tweets,
		})
	})
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].UserID < nodes[j].UserID })
	graph, err := influence.SyntheticGraph(nodes, influence.DefaultGraphConfig())
	if err != nil {
		log.Fatal(err)
	}
	cascade, err := influence.NewCascade(graph, influence.DefaultCascadeConfig(target))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := influence.PlanCampaign(cascade, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nseed selection over a %d-user follower graph (%d edges):\n",
		graph.Nodes(), graph.Edges())
	fmt.Printf("  greedy seeds reach %.0f users (%.0f interested in %s)\n",
		plan.Reach, plan.TopicReach, target)
	fmt.Printf("  top-degree baseline reaches %.0f, random baseline %.0f\n",
		plan.DegreeReach, plan.RandomReach)
	for _, s := range plan.Seeds {
		n := graph.Node(s)
		fmt.Printf("    seed user %d (%s, %s-focused, %d tweets, %d followers)\n",
			n.UserID, n.StateCode, n.Primary, n.Activity, graph.OutDegree(s))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
