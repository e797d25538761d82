package core

import (
	"fmt"
	"math/bits"

	"donorsense/internal/geo"
	"donorsense/internal/organ"
	"donorsense/internal/stats"
)

// The integer counting layer behind Figure 5 and the winner-takes-all
// baseline. Both analyses reduce a user to (state row, mention mask):
// which state the user lives in and which organs they have any attention
// on. StateOrganCells accumulates those pairs into per-state/per-organ
// user counts — mergeable and subtractable (stats.Counter*), so the
// report engine updates them in place as users change — and its
// Highlight and WinnerTakesAll methods turn the counts into results.
// The counts are integers, so the results depend only on which users
// were counted, never on the order or history of the updates.

// StateOrganCells is the mergeable per-state/per-organ user-count
// accumulator: mention(s, o) distinct users in state s with attention on
// organ o, users(s) distinct users in state s. States follow
// geo.StateCodes() row order; callers count only users with a Û row (a
// nonzero mention vector) and a resolvable state.
type StateOrganCells struct {
	mention *stats.Counter2D
	users   *stats.Counter1D
}

// NewStateOrganCells returns a zeroed accumulator over the canonical
// state rows.
func NewStateOrganCells() *StateOrganCells {
	n := len(geo.StateCodes())
	return &StateOrganCells{
		mention: stats.NewCounter2D(n, organ.Count),
		users:   stats.NewCounter1D(n),
	}
}

// AddUser counts one user in state row s with mention mask (bit
// o.Index() set when the user mentions organ o) with the given delta:
// +1 admits a user, −1 exactly reverses an earlier +1 — the
// subtractability the in-place update path relies on. A zero mask is
// ignored (such users have no Û row).
func (c *StateOrganCells) AddUser(s int, mask uint8, delta int) {
	if mask == 0 {
		return
	}
	c.users.Add(s, int64(delta))
	for m := mask; m != 0; m &= m - 1 {
		c.mention.Add(s, bits.TrailingZeros8(m), int64(delta))
	}
}

// Merge adds other into c — associative and commutative, like
// Dataset.Merge, so per-shard accumulators compose in any order.
func (c *StateOrganCells) Merge(other *StateOrganCells) error {
	if err := c.mention.Merge(other.mention); err != nil {
		return err
	}
	return c.users.Merge(other.users)
}

// Clone returns an independent copy.
func (c *StateOrganCells) Clone() *StateOrganCells {
	return &StateOrganCells{mention: c.mention.Clone(), users: c.users.Clone()}
}

// Highlight builds the Figure 5 result from accumulated counts: a =
// mentioning users inside the state, b = state users not mentioning,
// c/d the same outside. Zero cells that make the
// uncorrected relative risk undefined leave Defined false (preserving
// the highlight semantics) and fall back to the Haldane–Anscombe
// continuity estimate in Continuity, so a cell decrementing to zero
// mid-stream degrades instead of erroring.
func (c *StateOrganCells) Highlight() (*HighlightResult, error) {
	codes := geo.StateCodes()
	totalUsers := c.users.Sum()
	if totalUsers == 0 {
		return nil, fmt.Errorf("core: no users could be assigned to a state")
	}
	res := &HighlightResult{
		Risks:      make([][]StateOrganRisk, len(codes)),
		StateCodes: codes,
	}
	for s := range codes {
		res.Risks[s] = make([]StateOrganRisk, organ.Count)
		for _, o := range organ.All() {
			j := o.Index()
			aCnt := int(c.mention.At(s, j))
			bCnt := int(c.users.At(s)) - aCnt
			cCnt := int(c.mention.ColSum(j)) - aCnt
			dCnt := int(totalUsers-c.users.At(s)) - cCnt
			risk := StateOrganRisk{StateCode: codes[s], Organ: o}
			if rr, err := stats.NewRelativeRisk(aCnt, bCnt, cCnt, dCnt); err == nil {
				risk.RR = rr
				risk.Defined = true
			} else if rr, err := stats.ContinuityRelativeRisk(aCnt, bCnt, cCnt, dCnt); err == nil {
				risk.Continuity = rr
				risk.ContinuityDefined = true
			}
			res.Risks[s][j] = risk
		}
	}
	return res, nil
}

// WinnerTakesAll builds the winner-takes-all baseline from accumulated
// counts: the most-mentioned organ per state by raw user counts, organ
// ties to the lower index, states with no users mapping to -1.
func (c *StateOrganCells) WinnerTakesAll() (map[string]organ.Organ, error) {
	codes := geo.StateCodes()
	out := make(map[string]organ.Organ, len(codes))
	any := false
	for s, code := range codes {
		if c.users.At(s) == 0 {
			out[code] = organ.Organ(-1)
			continue
		}
		any = true
		best, bi := int64(-1), 0
		for j := 0; j < organ.Count; j++ {
			if v := c.mention.At(s, j); v > best {
				best, bi = v, j
			}
		}
		out[code] = organ.Organ(bi)
	}
	if !any {
		return nil, fmt.Errorf("core: no users could be assigned to a state")
	}
	return out, nil
}

// MentionAccum is the mergeable per-organ user-count accumulator behind
// the Table I and Figure 2 user statistics: distinct users mentioning
// each organ (Figure 2a), users by distinct-organ count (Figure 2b), and
// the distinct (user, organ) pair total that Table I's organs-per-user
// averages. Updated in place from mention-mask transitions — remove the
// old mask, add the new — and associative under Merge.
type MentionAccum struct {
	// PerOrgan[o] counts distinct users mentioning organ o.
	PerOrgan [organ.Count]int64
	// MultiUsers[k-1] counts users mentioning exactly k distinct organs.
	MultiUsers [organ.Count]int64
	// DistinctPairs is the total distinct (user, organ) mention pairs.
	DistinctPairs int64
}

// AddMask counts one user's mention mask with the given delta (+1 on
// entry, −1 to reverse). Zero masks contribute nothing: a user with no
// mentions has no Û row.
func (m *MentionAccum) AddMask(mask uint8, delta int) {
	k := bits.OnesCount8(mask)
	if k == 0 {
		return
	}
	d := int64(delta)
	m.MultiUsers[k-1] += d
	m.DistinctPairs += int64(k) * d
	for b := mask; b != 0; b &= b - 1 {
		m.PerOrgan[bits.TrailingZeros8(b)] += d
	}
}

// Merge adds other into m — associative and commutative.
func (m *MentionAccum) Merge(other *MentionAccum) {
	for i := range m.PerOrgan {
		m.PerOrgan[i] += other.PerOrgan[i]
		m.MultiUsers[i] += other.MultiUsers[i]
	}
	m.DistinctPairs += other.DistinctPairs
}

// UsersPerOrgan returns the Figure 2a histogram in the int shape of
// report.Analysis.
func (m *MentionAccum) UsersPerOrgan() [organ.Count]int {
	var out [organ.Count]int
	for i, v := range m.PerOrgan {
		out[i] = int(v)
	}
	return out
}

// MultiOrganUsers returns the Figure 2b user histogram (index 0 is
// k = 1).
func (m *MentionAccum) MultiOrganUsers() [organ.Count]int {
	var out [organ.Count]int
	for i, v := range m.MultiUsers {
		out[i] = int(v)
	}
	return out
}
