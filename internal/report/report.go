// Package report renders the paper's tables and figures as text: the
// Table I statistics block, log-scale ranked histograms (Figures 2, 3, 4,
// 7), the relative-risk state map (Figure 5), and the similarity heatmap
// with dendrogram ordering (Figure 6). The benchmark harness and the CLI
// print these so a reader can compare runs against the paper directly.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/stats"
)

// TableIText renders the Table I statistics block.
func TableIText(s pipeline.TableI) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %s\n", "Statistic", "Value")
	fmt.Fprintf(&b, "%-28s %s\n", strings.Repeat("-", 28), strings.Repeat("-", 12))
	fmt.Fprintf(&b, "%-28s %s\n", "Start Data Collection", s.Start.Format("Jan 02 2006"))
	fmt.Fprintf(&b, "%-28s %s\n", "Finish Data Collection", s.End.Format("Jan 02 2006"))
	fmt.Fprintf(&b, "%-28s %d\n", "Number of Days", s.Days)
	fmt.Fprintf(&b, "%-28s %d\n", "Tweets collected (US)", s.TweetsCollected)
	fmt.Fprintf(&b, "%-28s %d\n", "Tweets collected (total)", s.TotalCollected)
	fmt.Fprintf(&b, "%-28s %d\n", "Number of Users", s.Users)
	fmt.Fprintf(&b, "%-28s %.1f\n", "Avg. Tweets / Day", s.AvgTweetsPerDay)
	fmt.Fprintf(&b, "%-28s %.2f\n", "Avg. Tweets / User", s.AvgTweetsPerUser)
	fmt.Fprintf(&b, "%-28s %.2f\n", "Organs mentioned / Tweet", s.OrgansPerTweet)
	fmt.Fprintf(&b, "%-28s %.2f\n", "Organs mentioned / User", s.OrgansPerUser)
	fmt.Fprintf(&b, "%-28s %.2f%%\n", "Geo-tagged tweets", s.GeoTagRate*100)
	return b.String()
}

// logBar renders a log-scaled bar for a count, width ≤ max characters.
func logBar(count, maxCount int, width int) string {
	if count <= 0 || maxCount <= 0 {
		return ""
	}
	frac := math.Log1p(float64(count)) / math.Log1p(float64(maxCount))
	n := int(frac * float64(width))
	if n < 1 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// PopularityRank orders the organs by descending user count (Figure
// 2a's Analysis.Popularity), ties broken by canonical order.
func PopularityRank(counts [organ.Count]int) []organ.Organ {
	order := organ.All()
	sort.SliceStable(order, func(i, j int) bool {
		return counts[order[i].Index()] > counts[order[j].Index()]
	})
	return order
}

// UsersPerOrganText renders Figure 2(a): users per organ, log-scale bars.
func UsersPerOrganText(counts [organ.Count]int) string {
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	b.WriteString("Figure 2(a): users per organ (log scale)\n")
	// Present in descending popularity like the paper's histogram.
	for _, o := range PopularityRank(counts) {
		c := counts[o.Index()]
		fmt.Fprintf(&b, "  %-10s %8d %s\n", o, c, logBar(c, maxCount, 40))
	}
	return b.String()
}

// MultiOrganText renders Figure 2(b): tweets and users mentioning k
// distinct organs.
func MultiOrganText(tweets, users [organ.Count]int) string {
	var b strings.Builder
	b.WriteString("Figure 2(b): multi-organ mentions (log scale)\n")
	b.WriteString("  k     tweets     users\n")
	maxCount := 0
	for i := range tweets {
		if tweets[i] > maxCount {
			maxCount = tweets[i]
		}
		if users[i] > maxCount {
			maxCount = users[i]
		}
	}
	for k := 0; k < organ.Count; k++ {
		fmt.Fprintf(&b, "  %d %9d %9d  T:%-20s U:%s\n",
			k+1, tweets[k], users[k],
			logBar(tweets[k], maxCount, 20), logBar(users[k], maxCount, 20))
	}
	return b.String()
}

// OrganCharacterizationText renders Figure 3: one ranked, log-scaled
// histogram per organ showing where its focused users put the rest of
// their attention.
func OrganCharacterizationText(oc *core.OrganCharacterization) string {
	var b strings.Builder
	b.WriteString("Figure 3: organ characterization (rows of K, ranked bins)\n")
	for _, o := range organ.All() {
		sig := oc.Signature(o)
		fmt.Fprintf(&b, "  [%s] users=%d\n", o, oc.GroupSizes[o.Index()])
		idx := stats.RankDescending(sig)
		for _, j := range idx {
			if sig[j] <= 0 {
				continue
			}
			width := int(math.Max(1, sig[j]*40))
			fmt.Fprintf(&b, "    %-10s %.4f %s\n", organ.Organ(j), sig[j], strings.Repeat("#", width))
		}
	}
	return b.String()
}

// RegionCharacterizationText renders Figure 4: the per-state attention
// histograms (states with users only).
func RegionCharacterizationText(rc *core.RegionCharacterization) string {
	var b strings.Builder
	b.WriteString("Figure 4: state characterization (rows of K)\n")
	b.WriteString(fmt.Sprintf("  %-6s %s\n", "state", strings.Join(organ.Names(), "  ")))
	for i, code := range rc.StateCodes {
		if rc.GroupSizes[i] == 0 {
			continue
		}
		row := rc.K.Row(i)
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%5.3f", v)
		}
		fmt.Fprintf(&b, "  %-6s %s  (n=%d)\n", code, strings.Join(cells, "  "), rc.GroupSizes[i])
	}
	return b.String()
}

// RegionHistogramsText renders Figure 4 the way the paper draws it: one
// compact ranked histogram per state, bars log-scaled, so the per-state
// "organ signatures" and their differing shapes are visible at a glance.
func RegionHistogramsText(rc *core.RegionCharacterization) string {
	var b strings.Builder
	b.WriteString("Figure 4 (signature view): ranked per-state histograms\n")
	for i, code := range rc.StateCodes {
		if rc.GroupSizes[i] == 0 {
			continue
		}
		row := rc.K.Row(i)
		fmt.Fprintf(&b, "  %-4s (n=%6d) ", code, rc.GroupSizes[i])
		for _, j := range stats.RankDescending(row) {
			if row[j] <= 0 {
				continue
			}
			// Log-scale bars relative to the leading organ.
			width := 1 + int(math.Log1p(row[j]*100)/math.Log1p(100)*8)
			fmt.Fprintf(&b, "%s%s ", organ.Organ(j).String()[:2], strings.Repeat("▇", width))
		}
		b.WriteString("\n")
	}
	b.WriteString("  (bars: log-scaled attention, ranked; letter = organ initial)\n")
	return b.String()
}

// HighlightText renders Figure 5: per state, the organs whose relative
// risk significantly exceeds the national expectation, with RR and CI.
func HighlightText(h *core.HighlightResult) string {
	var b strings.Builder
	b.WriteString("Figure 5: organs highlighted per state (RR lower CI > 1)\n")
	for row, code := range h.StateCodes {
		var parts []string
		for _, r := range h.Risks[row] {
			if r.Highlighted() {
				parts = append(parts, fmt.Sprintf("%s RR=%.2f [%.2f,%.2f]",
					r.Organ, r.RR.RR, r.RR.Lower, r.RR.Upper))
			}
		}
		if len(parts) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-4s %s\n", code, strings.Join(parts, "; "))
	}
	return b.String()
}

// SimilarityHeatmapText renders Figure 6: the state×state distance matrix
// in dendrogram leaf order, bucketed into shade characters (darker =
// more similar), plus the ordered state list.
func SimilarityHeatmapText(dist [][]float64, codes []string, dg *cluster.Dendrogram) string {
	order := dg.LeafOrder()
	shades := []byte{'@', '#', '+', '-', '.', ' '}
	// Scale by the maximum finite distance.
	maxD := 0.0
	for _, row := range dist {
		for _, v := range row {
			if !math.IsInf(v, 1) && v > maxD {
				maxD = v
			}
		}
	}
	var b strings.Builder
	b.WriteString("Figure 6: state similarity heatmap (dendrogram order; darker = more similar)\n  ")
	for _, i := range order {
		b.WriteString(codes[i][:1])
	}
	b.WriteString("\n")
	for _, i := range order {
		fmt.Fprintf(&b, "%-4s", codes[i])
		for _, j := range order {
			v := dist[i][j]
			var c byte
			switch {
			case math.IsInf(v, 1):
				c = ' '
			default:
				bucket := int(v / (maxD + 1e-12) * float64(len(shades)))
				if bucket >= len(shades) {
					bucket = len(shades) - 1
				}
				c = shades[bucket]
			}
			b.WriteByte(c)
		}
		b.WriteString("\n")
	}
	b.WriteString("order: " + strings.Join(reorder(codes, order), " ") + "\n")
	return b.String()
}

func reorder(codes []string, order []int) []string {
	out := make([]string, len(order))
	for i, idx := range order {
		out[i] = codes[idx]
	}
	return out
}

// DendrogramText renders the merge tree as an indented outline with
// heights — a textual Figure 6 dendrogram.
func DendrogramText(dg *cluster.Dendrogram, labels []string) string {
	var b strings.Builder
	b.WriteString("Dendrogram (merge heights)\n")
	var walk func(node int, depth int)
	children := map[int][2]int{}
	heights := map[int]float64{}
	for i, m := range dg.Merges {
		children[dg.N+i] = [2]int{m.A, m.B}
		heights[dg.N+i] = m.Height
	}
	walk = func(node, depth int) {
		indent := strings.Repeat("  ", depth)
		if node < dg.N {
			fmt.Fprintf(&b, "%s- %s\n", indent, labels[node])
			return
		}
		fmt.Fprintf(&b, "%s+ h=%.4f\n", indent, heights[node])
		c := children[node]
		walk(c[0], depth+1)
		walk(c[1], depth+1)
	}
	if dg.N == 1 {
		fmt.Fprintf(&b, "- %s\n", labels[0])
		return b.String()
	}
	walk(dg.N+len(dg.Merges)-1, 0)
	return b.String()
}

// UserClustersText renders Figure 7: each K-Means cluster's centroid as a
// ranked histogram with its relative size.
func UserClustersText(res *cluster.KMeansResult, totalUsers int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: %d user clusters (K-Means)\n", res.K)
	// Present clusters largest first, like the paper's size-annotated
	// panels.
	idx := make([]int, res.K)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return res.Sizes[idx[a]] > res.Sizes[idx[b]] })
	for _, c := range idx {
		share := float64(res.Sizes[c]) / float64(totalUsers) * 100
		fmt.Fprintf(&b, "  cluster %2d  size=%6d (%.1f%%)\n", c, res.Sizes[c], share)
		cent := res.Centroids[c]
		for _, j := range stats.RankDescending(cent) {
			if cent[j] < 0.005 {
				continue
			}
			width := int(math.Max(1, cent[j]*40))
			fmt.Fprintf(&b, "    %-10s %.3f %s\n", organ.Organ(j), cent[j], strings.Repeat("#", width))
		}
	}
	return b.String()
}

// SweepText renders a K-Means model-selection sweep (the paper's
// silhouette / inertia / average-size comparison behind k = 12).
func SweepText(results []cluster.SweepResult) string {
	var b strings.Builder
	b.WriteString("K-Means model selection sweep\n")
	b.WriteString("  k   silhouette    inertia    avg size   min size\n")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-3d %9.4f %10.2f %10.1f %10d\n", r.K, r.Silhouette, r.Inertia, r.AvgSize, r.MinSize)
	}
	return b.String()
}

// SpearmanText renders the Figure 2(a) validation line.
func SpearmanText(r stats.SpearmanResult) string {
	return fmt.Sprintf("Spearman correlation vs OPTN 2012 transplants: r=%.3f, p=%.4f, n=%d\n", r.R, r.P, r.N)
}
