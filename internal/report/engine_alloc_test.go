package report

import (
	"runtime"
	"testing"

	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
)

// TestEngineWarmRefreshAllocatesDelta guards the in-place refresh: over
// a 200k-user store, a warm Refresh of a delta of a few hundred users,
// some of them new, must allocate bytes in proportion to the delta — not
// a copy of Û, of any row-aligned column, or of the K-Means state. The
// first delta regrows the columns with headroom; the guarded refresh is
// the second, whose inserts fit in that headroom.
func TestEngineWarmRefreshAllocatesDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-user store")
	}
	const users = 200_000
	corpus := gen.Generate(gen.DefaultConfig(0.02))
	d := pipeline.SynthDataset(users, 3)
	cfg := engineTestConfig()
	cfg.KUsers = 12
	cfg.Workers = 1
	e := NewEngine(d, cfg)
	if _, err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	next := 0
	refresh := func() (allocated uint64, dirty int) {
		for ; d.DirtyRows() < 600; next++ {
			d.Process(corpus.Tweets[next])
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		dirty, _, _ = e.LastRefresh()
		return after.TotalAlloc - before.TotalAlloc, dirty
	}
	refresh() // regrows the row-aligned columns with headroom
	rows := e.att.Users()
	allocated, dirty := refresh()
	if dirty < 300 || dirty > 1500 {
		t.Fatalf("fixture drifted: %d dirty rows, want a few hundred", dirty)
	}
	if e.att.Users() <= rows {
		t.Fatalf("fixture drifted: the guarded delta inserted no users (%d → %d rows)", rows, e.att.Users())
	}
	// The bound is a copy of the narrowest row-aligned column (the int16
	// state shadow), 1/24 of Û: copying any column fails the guard.
	matrix := uint64(users * organ.Count * 8)
	if bound := uint64(users * 2); allocated > bound {
		t.Fatalf("warm refresh of %d dirty rows allocated %d bytes, bound %d (Û alone is %d)", dirty, allocated, bound, matrix)
	}
	t.Logf("warm refresh of %d dirty rows allocated %d bytes (Û is %d)", dirty, allocated, matrix)
}
