package userstore

// Delta tracking: an opt-in record of which rows changed since the last
// drain, so incremental consumers (the report engine) can re-read only
// the touched users instead of scanning every column.
//
// The store is append-only, so a row index names the same user for the
// store's lifetime: a drained Delta promises that every user inserted,
// or whose counters, mentions, or identity changed, since the previous
// drain has its row bit set.
//
// Mention counts only grow: every writer (the pipeline's fold and merge)
// adds non-negative counts, and no path removes a user or lowers a
// count. The top-mentioner ranking relies on it (report.TopMentioners):
// a row that is not dirty cannot have moved down, so a ranked set stays
// exact when it re-ranks only the dirty rows.
//
// Tracking is off by default: the hot-path cost when disabled is one
// nil check per mutator, preserving the committed userstore update
// benchmarks. MentionsRow hands out a mutable view the store cannot
// observe writes through; callers that mutate it must pair the write
// with MarkDirty (the pipeline's fold and merge paths always call
// AddCounts on the same row, which marks it, but the requirement is
// part of the MentionsRow contract regardless).

// Delta is the drained change-set: Rows holds the indices of rows
// inserted or touched since the previous drain.
type Delta struct {
	Rows Bitset
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool { return d.Rows.Count() == 0 }

// deltaState is the live tracking state; nil means tracking disabled.
type deltaState struct {
	dirty Bitset
}

// EnableDeltaTracking starts recording row changes. The first drained
// delta covers mutations from this call on, so callers snapshot or
// cold-build their view first, then enable. Idempotent.
func (s *Store) EnableDeltaTracking() {
	if s.delta == nil {
		s.delta = &deltaState{}
	}
}

// DeltaTracking reports whether delta tracking is enabled.
func (s *Store) DeltaTracking() bool { return s.delta != nil }

// DirtyRows returns the number of rows currently marked dirty (0 when
// tracking is disabled) — an observability accessor; it does not drain.
func (s *Store) DirtyRows() int {
	if s.delta == nil {
		return 0
	}
	return s.delta.dirty.Count()
}

// EachDirty calls fn for every row marked dirty since the last drain, in
// ascending order, without draining. A no-op when tracking is disabled.
func (s *Store) EachDirty(fn func(row uint32)) {
	if s.delta != nil {
		s.delta.dirty.Each(fn)
	}
}

// DrainDelta hands the accumulated change-set to the caller and resets
// tracking for the next window. The returned bitset is owned by the
// caller. Returns a zero Delta when tracking is disabled.
func (s *Store) DrainDelta() Delta {
	if s.delta == nil {
		return Delta{}
	}
	d := Delta{Rows: s.delta.dirty}
	s.delta.dirty = nil
	return d
}

// MarkDirty records that row's data changed. Required after mutating a
// MentionsRow view; a no-op when tracking is disabled.
func (s *Store) MarkDirty(row int32) {
	if s.delta != nil {
		s.delta.dirty.Set(uint32(row))
	}
}

// markTouch is the mutator hook.
func (s *Store) markTouch(row int32) {
	if s.delta != nil {
		s.delta.dirty.Set(uint32(row))
	}
}
