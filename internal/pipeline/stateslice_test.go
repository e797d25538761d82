package pipeline

import (
	"math/rand"
	"testing"

	"donorsense/internal/organ"
)

// Satellite coverage for the per-state bitset indices: the per-state
// user counts and organ sums EachStateSlice reads off the bitset words
// must equal a brute-force sweep over every user record, on randomized
// datasets and — because deletes swap rows and merges rewrite identity
// fields — after merging user partitions and honoring delete notices.

type stateSliceOracle struct {
	users    map[string]int
	mentions map[string][organ.Count]int64
}

// bruteForceStateSlices sweeps EachUser (record materialization, no
// bitsets) into per-state aggregates.
func bruteForceStateSlices(d *Dataset) stateSliceOracle {
	o := stateSliceOracle{
		users:    make(map[string]int),
		mentions: make(map[string][organ.Count]int64),
	}
	d.EachUser(func(u *UserRecord) {
		o.users[u.StateCode]++
		sums := o.mentions[u.StateCode]
		for i, m := range u.Mentions {
			sums[i] += int64(m)
		}
		o.mentions[u.StateCode] = sums
	})
	return o
}

func assertStateSlicesMatch(t *testing.T, label string, d *Dataset) {
	t.Helper()
	want := bruteForceStateSlices(d)
	seen := make(map[string]bool)
	d.EachStateSlice(func(code string, users int, mentions [organ.Count]int64) {
		if seen[code] {
			t.Fatalf("%s: state %s sliced twice", label, code)
		}
		seen[code] = true
		if users != want.users[code] {
			t.Errorf("%s: state %s users = %d, brute force %d", label, code, users, want.users[code])
		}
		if mentions != want.mentions[code] {
			t.Errorf("%s: state %s mention sums = %v, brute force %v",
				label, code, mentions, want.mentions[code])
		}
	})
	for code, n := range want.users {
		if !seen[code] && n > 0 {
			t.Errorf("%s: state %s (%d users) missing from bitset iteration", label, code, n)
		}
	}
}

// TestStateSlicesMatchBruteForce runs the bitset-vs-oracle comparison on
// randomized datasets: random tweet windows, then a user-partition merge,
// re-checking after each phase.
func TestStateSlicesMatchBruteForce(t *testing.T) {
	tweets := sharedCorpus.Tweets
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))

		// Phase 1: a randomized collection window.
		d := NewDataset()
		lo := r.Intn(len(tweets) / 2)
		hi := lo + 1 + r.Intn(len(tweets)-lo-1)
		for _, tw := range tweets[lo:hi] {
			d.Process(tw)
		}
		assertStateSlicesMatch(t, "collected", d)

		// Phase 2: merge in a freshly-collected user partition of the
		// remaining tweets (identity rewrites move rows between bitsets).
		for _, p := range partitionByUser(tweets[hi:], 3) {
			d.Merge(p)
		}
		assertStateSlicesMatch(t, "post-merge", d)
	}
}
