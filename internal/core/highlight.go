package core

import (
	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/stats"
)

// StateOrganRisk is the relative-risk analysis of one (state, organ) pair
// (Equation 4 / Figure 5).
type StateOrganRisk struct {
	StateCode string
	Organ     organ.Organ
	// RR carries the point estimate and confidence interval. Undefined
	// (zero-count) cells leave Defined false.
	RR      stats.RelativeRisk
	Defined bool
	// Continuity carries the Haldane–Anscombe continuity-corrected
	// estimate for cells where the uncorrected RR is undefined (a zero
	// outcome cell — routinely produced by incremental decrements), so
	// sparse cells degrade to a shrunk estimate instead of a hole.
	// Populated only when Defined is false and both exposure groups are
	// nonempty; it never influences Highlighted().
	Continuity        stats.RelativeRisk
	ContinuityDefined bool
}

// Highlighted reports the paper's Figure 5 criterion: the organ's
// conversation prevalence significantly exceeds the national expectation
// in this state.
func (s StateOrganRisk) Highlighted() bool {
	return s.Defined && s.RR.Significant()
}

// HighlightResult holds the full Figure 5 analysis.
type HighlightResult struct {
	// Risks is indexed [stateRow][organ] in geo.StateCodes() ×
	// canonical organ order.
	Risks [][]StateOrganRisk
	// StateCodes gives the row order.
	StateCodes []string
}

// HighlightedOrgans returns the organs significantly over-represented in
// the state's conversations, in canonical organ order.
func (h *HighlightResult) HighlightedOrgans(code string) []organ.Organ {
	row := geo.StateIndex(code)
	if row < 0 {
		return nil
	}
	var out []organ.Organ
	for _, r := range h.Risks[row] {
		if r.Highlighted() {
			out = append(out, r.Organ)
		}
	}
	return out
}

// StatesHighlighting returns the state codes where the organ is
// significantly over-represented.
func (h *HighlightResult) StatesHighlighting(o organ.Organ) []string {
	var out []string
	for row, code := range h.StateCodes {
		if h.Risks[row][o.Index()].Highlighted() {
			out = append(out, code)
		}
	}
	return out
}
