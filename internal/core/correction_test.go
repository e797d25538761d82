package core

import (
	"reflect"
	"sort"
	"testing"

	"donorsense/internal/organ"
)

func TestCorrectionString(t *testing.T) {
	for _, c := range []Correction{NoCorrection, BonferroniCorrection, BHCorrection} {
		if c.String() == "correction(?)" {
			t.Errorf("correction %d unnamed", int(c))
		}
	}
}

func TestAdjustedHighlightsNoCorrectionMatchesPaperRule(t *testing.T) {
	a, states := buildRegionFixture(t)
	h, err := cellsOf(a, states).Highlight()
	if err != nil {
		t.Fatal(err)
	}
	adj, err := h.AdjustedHighlights(NoCorrection)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range h.StateCodes {
		want := h.HighlightedOrgans(code)
		got := adj[code]
		sortOrgans(want)
		sortOrgans(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("state %s: adjusted(none) = %v, paper rule = %v", code, got, want)
		}
	}
}

func sortOrgans(os []organ.Organ) {
	sort.Slice(os, func(i, j int) bool { return os[i] < os[j] })
}

func TestCorrectionsAreMonotonicallyStricter(t *testing.T) {
	a, states := buildRegionFixture(t)
	h, err := cellsOf(a, states).Highlight()
	if err != nil {
		t.Fatal(err)
	}
	none, _ := h.AdjustedHighlights(NoCorrection)
	bh, _ := h.AdjustedHighlights(BHCorrection)
	bonf, _ := h.AdjustedHighlights(BonferroniCorrection)
	if !(CountHighlights(bonf) <= CountHighlights(bh) && CountHighlights(bh) <= CountHighlights(none)) {
		t.Errorf("highlight counts not monotone: bonf=%d bh=%d none=%d",
			CountHighlights(bonf), CountHighlights(bh), CountHighlights(none))
	}
	// Every Bonferroni survivor must also survive BH, and every BH
	// survivor the uncorrected rule.
	subset := func(sub, super map[string][]organ.Organ) bool {
		for code, os := range sub {
			superset := map[organ.Organ]bool{}
			for _, o := range super[code] {
				superset[o] = true
			}
			for _, o := range os {
				if !superset[o] {
					return false
				}
			}
		}
		return true
	}
	if !subset(bonf, bh) || !subset(bh, none) {
		t.Error("correction survivors are not nested")
	}
}

func TestStrongSignalSurvivesBonferroni(t *testing.T) {
	// A very strong planted excess must survive even FWER control.
	b := users{}
	states := map[int64]string{}
	id := int64(0)
	add := func(state string, m [organ.Count]int) {
		id++
		b[id] = m
		states[id] = state
	}
	for i := 0; i < 200; i++ {
		add("KS", mentions(organ.Kidney, 1))
	}
	for i := 0; i < 2000; i++ {
		add("TX", mentions(organ.Heart, 1))
	}
	for i := 0; i < 300; i++ {
		add("TX", mentions(organ.Kidney, 1))
	}
	a := attentionOf(t, b)
	h, err := cellsOf(a, states).Highlight()
	if err != nil {
		t.Fatal(err)
	}
	bonf, err := h.AdjustedHighlights(BonferroniCorrection)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range bonf["KS"] {
		if o == organ.Kidney {
			found = true
		}
	}
	if !found {
		t.Errorf("KS kidney (RR≈%.1f) did not survive Bonferroni: %v",
			h.Risks[ksRow(h)][organ.Kidney.Index()].RR.RR, bonf)
	}
}

func ksRow(h *HighlightResult) int {
	for i, c := range h.StateCodes {
		if c == "KS" {
			return i
		}
	}
	return -1
}

func TestAdjustedHighlightsErrors(t *testing.T) {
	a, states := buildRegionFixture(t)
	h, err := cellsOf(a, states).Highlight()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.AdjustedHighlights(Correction(99)); err == nil {
		t.Error("unknown correction accepted")
	}
}

func TestCountHighlights(t *testing.T) {
	m := map[string][]organ.Organ{
		"KS": {organ.Kidney},
		"MA": {organ.Kidney, organ.Lung},
	}
	if got := CountHighlights(m); got != 3 {
		t.Errorf("CountHighlights = %d, want 3", got)
	}
	if CountHighlights(nil) != 0 {
		t.Error("nil map should count 0")
	}
}
