package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"donorsense/internal/mat"
	"donorsense/internal/organ"
)

// patchShadow is the oracle: a plain map of per-user mention counts,
// flattened into the columnar (ids, counts) shape on demand.
type patchShadow map[int64][]int32

func (sh patchShadow) columns() ([]int64, []int32) {
	ids := make([]int64, 0, len(sh))
	for id := range sh {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	counts := make([]int32, 0, len(ids)*organ.Count)
	for _, id := range ids {
		counts = append(counts, sh[id]...)
	}
	return ids, counts
}

// tagOf and wideOf are the per-user values of the two row-aligned test
// columns spliced alongside Û.
func tagOf(id int64) int64 { return id*7 + 3 }

func wideOf(id int64) [3]int32 { return [3]int32{int32(id), int32(-id), int32(id % 5)} }

// TestAttentionPatchProperty asserts that an Attention patched in place
// through randomized insert / update / merge batches holds, at every
// epoch boundary, the bit-identical row of every user that one rebuilt
// from scratch by AttentionFromCounts holds, that RowOf finds each of
// them after merges, and that columns grown to Users() stay aligned
// with UserIDs(): a clean user's value stays on its row. One column starts with exact capacity (the
// first insert regrows it), the other with ample capacity (every patch
// runs in place).
func TestAttentionPatchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1709))

	for trial := 0; trial < 20; trial++ {
		shadow := patchShadow{}
		// Seed population.
		for i := 0; i < 30+rng.Intn(50); i++ {
			id := int64(rng.Intn(500) + 1)
			cnt := make([]int32, organ.Count)
			cnt[rng.Intn(organ.Count)] = int32(rng.Intn(3) + 1)
			if old, ok := shadow[id]; ok {
				for c := range old {
					old[c] += cnt[c]
				}
			} else {
				shadow[id] = cnt
			}
		}
		ids, counts := shadow.columns()
		att, err := AttentionFromCounts(ids, counts)
		if err != nil {
			t.Fatalf("trial %d: cold build: %v", trial, err)
		}
		if att.Epoch() != 0 {
			t.Fatalf("cold epoch %d", att.Epoch())
		}
		tags := make([]int64, 0, att.Users())
		wide := make([]int32, 0, 4*3*att.Users()+64)
		for _, id := range att.UserIDs() {
			w := wideOf(id)
			tags = append(tags, tagOf(id))
			wide = append(wide, w[:]...)
		}

		for batch := 0; batch < 15; batch++ {
			// One batch = a mix of mention updates and a merge-like bulk
			// add, applied to the shadow while recording which ids
			// changed.
			changed := map[int64]bool{}
			for op := 0; op < 1+rng.Intn(12); op++ {
				if rng.Intn(10) < 7 { // mention delta on a random (maybe new) user
					id := int64(rng.Intn(500) + 1)
					cnt := shadow[id]
					if cnt == nil {
						cnt = make([]int32, organ.Count)
						shadow[id] = cnt
					}
					cnt[rng.Intn(organ.Count)] += int32(rng.Intn(4) + 1)
					changed[id] = true
				} else { // merge: bulk-add a small foreign shard
					for i := 0; i < 3+rng.Intn(5); i++ {
						id := int64(rng.Intn(500) + 1)
						cnt := shadow[id]
						if cnt == nil {
							cnt = make([]int32, organ.Count)
							shadow[id] = cnt
						}
						cnt[rng.Intn(organ.Count)] += int32(rng.Intn(2) + 1)
						changed[id] = true
					}
				}
			}

			// Build the patch from the changed set.
			var upIDs []int64
			for id := range changed {
				upIDs = append(upIDs, id)
			}
			sort.Slice(upIDs, func(i, j int) bool { return upIDs[i] < upIDs[j] })
			upCounts := make([]int32, 0, len(upIDs)*organ.Count)
			for _, id := range upIDs {
				upCounts = append(upCounts, shadow[id]...)
			}

			wantIDs, wantCounts := shadow.columns()
			prevEpoch := att.Epoch()
			if err := att.Patch(upIDs, upCounts); err != nil {
				t.Fatalf("trial %d batch %d: patch: %v", trial, batch, err)
			}
			if att.Epoch() != prevEpoch+1 {
				t.Fatalf("epoch %d after patch, want %d", att.Epoch(), prevEpoch+1)
			}

			want, err := AttentionFromCounts(wantIDs, wantCounts)
			if err != nil {
				t.Fatalf("trial %d batch %d: rebuild: %v", trial, batch, err)
			}
			compareAttention(t, att, want)

			// Grow the columns, then set only the patched users' values:
			// every other row must have kept its own.
			tags = mat.ResizeRows(tags, att.Users(), 1)
			wide = mat.ResizeRows(wide, att.Users(), 3)
			for _, id := range upIDs {
				r := att.RowOf(id)
				w := wideOf(id)
				tags[r] = tagOf(id)
				copy(wide[r*3:], w[:])
			}
			if len(tags) != att.Users() || len(wide) != 3*att.Users() {
				t.Fatalf("spliced columns hold %d/%d values for %d users", len(tags), len(wide), att.Users())
			}
			for r, id := range att.UserIDs() {
				if w := wideOf(id); tags[r] != tagOf(id) || [3]int32(wide[r*3:r*3+3]) != w {
					t.Fatalf("trial %d batch %d: row %d (user %d) carries %d %v, want %d %v",
						trial, batch, r, id, tags[r], wide[r*3:r*3+3], tagOf(id), w)
				}
			}
		}
	}
}

// compareAttention asserts got and want hold the same users with
// bitwise-equal Û rows, and that RowOf finds each of them.
func compareAttention(t *testing.T, got, want *Attention) {
	t.Helper()
	if got.Users() != want.Users() {
		t.Fatalf("users %d want %d", got.Users(), want.Users())
	}
	for r, id := range got.UserIDs() {
		if got.RowOf(id) != r {
			t.Fatalf("RowOf(%d) = %d, the user's row is %d", id, got.RowOf(id), r)
		}
	}
	for w, id := range want.UserIDs() {
		r := got.RowOf(id)
		if r < 0 {
			t.Fatalf("user %d missing", id)
		}
		g, wr := got.Matrix().RowView(r), want.Matrix().RowView(w)
		for j := range wr {
			if math.Float64bits(g[j]) != math.Float64bits(wr[j]) {
				t.Fatalf("user %d Û[%d] = %x want %x (%g vs %g)", id, j,
					math.Float64bits(g[j]), math.Float64bits(wr[j]), g[j], wr[j])
			}
		}
	}
	if got.RowOf(-99) != -1 {
		t.Fatalf("RowOf(unknown) = %d", got.RowOf(-99))
	}
}

// TestAttentionPatchValidation pins the error paths: misordered inputs,
// zero-sum update rows, and length mismatches.
func TestAttentionPatchValidation(t *testing.T) {
	att, err := AttentionFromCounts([]int64{1, 2}, []int32{
		1, 0, 0, 0, 0, 0,
		0, 2, 0, 0, 0, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := func(v int32) []int32 { return []int32{v, 0, 0, 0, 0, 0} }

	if err := att.Patch([]int64{2, 1}, append(row(1), row(1)...)); err == nil {
		t.Fatal("unsorted update ids accepted")
	}
	if err := att.Patch([]int64{1}, row(0)); err == nil {
		t.Fatal("zero-sum update row accepted")
	}
	if err := att.Patch([]int64{1}, nil); err == nil {
		t.Fatal("counts length mismatch accepted")
	}
	if att.Epoch() != 0 {
		t.Fatalf("failed patches advanced epoch to %d", att.Epoch())
	}
}
