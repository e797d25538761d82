package report

import (
	"strings"
	"testing"
	"time"

	"donorsense/internal/organ"
	"donorsense/internal/temporal"
	"donorsense/internal/text"
	"donorsense/internal/twitter"
)

func TestSparkline(t *testing.T) {
	if got := Sparkline([]int{0, 0, 0}); got != "▁▁▁" {
		t.Errorf("flat zero sparkline = %q", got)
	}
	got := Sparkline([]int{0, 5, 10})
	runes := []rune(got)
	if len(runes) != 3 || runes[0] >= runes[1] || runes[1] >= runes[2] {
		t.Errorf("ascending sparkline wrong: %q", got)
	}
	if Sparkline(nil) != "" {
		t.Error("nil series should render empty")
	}
}

func TestTemporalText(t *testing.T) {
	start := time.Date(2015, 4, 22, 0, 0, 0, 0, time.UTC)
	s, err := temporal.NewSeries(start, 60)
	if err != nil {
		t.Fatal(err)
	}
	ex := text.NewExtractor()
	for d := 0; d < 60; d++ {
		tw := twitter.Tweet{Text: "kidney donor drive", CreatedAt: start.AddDate(0, 0, d)}
		s.Observe(tw, ex.Extract(tw.Text))
	}
	bursts := []temporal.Burst{{Organ: organ.Kidney, StartDay: 30, EndDay: 35, Peak: 12, PeakDay: 32, Z: 4.2}}
	out := TemporalText(s, bursts)
	if !strings.Contains(out, "kidney") || !strings.Contains(out, "z=4.2") {
		t.Errorf("temporal text malformed:\n%s", out)
	}
	quiet := TemporalText(s, nil)
	if !strings.Contains(quiet, "no bursts") {
		t.Errorf("quiet text malformed:\n%s", quiet)
	}
}

func TestCorrectionComparisonText(t *testing.T) {
	out := CorrectionComparisonText(map[string]int{"none": 25, "benjamini-hochberg": 18, "bonferroni": 9})
	ni := strings.Index(out, "none")
	bh := strings.Index(out, "benjamini-hochberg")
	bf := strings.Index(out, "bonferroni")
	if !(ni < bh && bh < bf) {
		t.Errorf("corrections out of order:\n%s", out)
	}
	if !strings.Contains(out, "25") || !strings.Contains(out, "9") {
		t.Errorf("counts missing:\n%s", out)
	}
}
