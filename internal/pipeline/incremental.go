package pipeline

import (
	"donorsense/internal/organ"
	"donorsense/internal/userstore"
)

// The incremental-analytics plumbing: the report engine subscribes to the
// user store's row-level change feed through the Dataset so it can patch
// Û and its accumulators instead of rebuilding them (DESIGN.md §14). The
// Dataset stays the owner of the store; the engine only ever sees row
// snapshots (UserAt) and drained deltas.

// EnableDeltaTracking turns on row-level change tracking in the user
// store. Idempotent; tracking off costs the fold path nothing beyond a
// nil check, so it is off unless an incremental consumer asks.
func (d *Dataset) EnableDeltaTracking() { d.store.EnableDeltaTracking() }

// DeltaTracking reports whether change tracking is on.
func (d *Dataset) DeltaTracking() bool { return d.store.DeltaTracking() }

// DirtyRows returns the number of store rows touched since the last
// drain without consuming the delta. Tests and benchmarks size their
// deltas with it; the analytics_dirty_rows gauge is set from the count
// Engine.Refresh drains, not from here.
func (d *Dataset) DirtyRows() int { return d.store.DirtyRows() }

// EachDirty calls fn for every row touched since the last drain, in
// ascending order, without consuming the delta.
func (d *Dataset) EachDirty(fn func(row uint32)) { d.store.EachDirty(fn) }

// DrainDelta hands over the accumulated change set and resets tracking.
// See userstore.Delta for the consumption contract (re-read the dirty
// rows against the live store). It is the one consumer of the change
// feed, so before it returns it offers every drained row to the
// top-mentioner ranking (TopRanking).
func (d *Dataset) DrainDelta() userstore.Delta {
	delta := d.store.DrainDelta()
	if r := &d.top; r.K > 0 {
		delta.Rows.Each(func(row uint32) {
			if t := d.mentionTotal(row); t > 0 && t >= r.Kth {
				r.Cands = append(r.Cands, row)
			}
		})
		// Drains with no ranking call between them only append; past
		// this bound a rebuild is cheaper than carrying the list.
		if len(r.Cands) > 4*r.K+4096 {
			*r = TopRanking{}
		}
	}
	return delta
}

// TopRanking is the state report.TopMentioners keeps on a dataset with
// change tracking on, so that a call after the first re-ranks a few
// hundred rows instead of scanning the mention column. Mention totals
// only grow (see userstore's delta contract), so a row outside Rows
// whose total is below Kth can enter the top K only after it is touched:
// DrainDelta then lists it in Cands, and the undrained ones are read
// with EachDirty.
type TopRanking struct {
	K     int      // the largest max ranked so far; 0 = not built
	Rows  []uint32 // the top K rows at the last ranking, best first; fewer while fewer users mention an organ
	Kth   int64    // total of Rows[K-1]; 0 while Rows holds fewer than K rows
	Cands []uint32 // rows drained since the last ranking whose total was nonzero and ≥ Kth
}

// TopRanking returns the dataset's top-mentioner ranking, owned by
// report.TopMentioners. It runs on the goroutine that owns the dataset.
func (d *Dataset) TopRanking() *TopRanking { return &d.top }

// mentionTotal is row's total organ mentions.
func (d *Dataset) mentionTotal(row uint32) int64 {
	var t int64
	for _, m := range d.store.MentionsRow(int32(row)) {
		t += int64(m)
	}
	return t
}

// UserAt snapshots the identity fields of one live store row — the read
// side of the delta contract. The mentions slice aliases the store
// column; callers must copy anything they retain.
func (d *Dataset) UserAt(row uint32) (id int64, stateCode string, mentions []int32) {
	r := int32(row)
	return d.store.ID(r), d.store.StateCode(r), d.store.MentionsRow(r)
}

// Mentions returns the store's row-major users×organ.Count mention
// column: row r holds the mentions UserAt(r) reports. The slice aliases
// the store; do not mutate it or keep it across dataset mutation.
func (d *Dataset) Mentions() []int32 { return d.store.Mentions() }

// TweetOrganHistogram returns the Figure 2(b) tweet histogram (index 0 ⇒
// k = 1 distinct organs) straight from the per-tweet counter — O(6), no
// user scan.
func (d *Dataset) TweetOrganHistogram() [organ.Count]int {
	var tweets [organ.Count]int
	for k, n := range d.organsPerTweet {
		if k >= 1 && k <= organ.Count {
			tweets[k-1] = n
		}
	}
	return tweets
}

// SetAnalyticsState attaches the report engine's opaque warm-start blob
// (clustering state) so WriteCheckpoint persists it alongside the
// collection state. The dataset never interprets the bytes.
func (d *Dataset) SetAnalyticsState(b []byte) { d.analytics = b }

// AnalyticsState returns the warm-start blob restored from a checkpoint
// (nil when none was persisted).
func (d *Dataset) AnalyticsState() []byte { return d.analytics }
