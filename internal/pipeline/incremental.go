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
// drain without consuming the delta — the feed for the
// analytics_dirty_rows gauge.
func (d *Dataset) DirtyRows() int { return d.store.DirtyRows() }

// DrainDelta hands over the accumulated change set and resets tracking.
// See userstore.Delta for the consumption contract (apply Deleted first,
// then re-read the dirty rows against the live store).
func (d *Dataset) DrainDelta() userstore.Delta { return d.store.DrainDelta() }

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
