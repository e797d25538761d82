package report

import (
	"fmt"
	"strings"

	"donorsense/internal/organ"
	"donorsense/internal/temporal"
)

// sparkRunes render a small time series inline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a non-negative integer series as a unicode
// sparkline, scaled to the series maximum; an all-zero series is flat.
func Sparkline(series []int) string {
	top := 1
	for _, v := range series {
		top = max(top, v)
	}
	var b strings.Builder
	for _, v := range series {
		b.WriteRune(sparkRunes[v*(len(sparkRunes)-1)/top])
	}
	return b.String()
}

// TemporalText renders weekly per-organ sparklines and the detected
// bursts — the real-time-sensor extension view.
func TemporalText(s *temporal.Series, bursts []temporal.Burst) string {
	var b strings.Builder
	b.WriteString("Temporal sensor: weekly volume per organ\n")
	for _, o := range organ.All() {
		daily := s.OrganSeries(o)
		weekly := make([]int, (len(daily)+6)/7)
		for d, n := range daily {
			weekly[d/7] += n
		}
		fmt.Fprintf(&b, "  %-10s %s\n", o, Sparkline(weekly))
	}
	if len(bursts) == 0 {
		b.WriteString("  no bursts detected\n")
		return b.String()
	}
	b.WriteString("Detected bursts:\n")
	for _, burst := range bursts {
		start := s.Start().AddDate(0, 0, burst.StartDay)
		end := s.Start().AddDate(0, 0, burst.EndDay)
		fmt.Fprintf(&b, "  %-10s %s – %s  peak %d/day (z=%.1f)\n",
			burst.Organ, start.Format("Jan 02 2006"), end.Format("Jan 02 2006"), burst.Peak, burst.Z)
	}
	return b.String()
}

// CorrectionComparisonText renders how many Figure 5 highlights survive
// each multiple-testing correction.
func CorrectionComparisonText(counts map[string]int) string {
	var b strings.Builder
	b.WriteString("Figure 5 highlights under multiple-testing correction:\n")
	for _, name := range []string{"none", "benjamini-hochberg", "bonferroni"} {
		if n, ok := counts[name]; ok {
			fmt.Fprintf(&b, "  %-20s %d (state, organ) pairs\n", name, n)
		}
	}
	return b.String()
}
