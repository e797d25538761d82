package report

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"donorsense/internal/gen"
	"donorsense/internal/mat"
	"donorsense/internal/obs/trace"
	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

// characterizationsIdentical asserts Figures 3 and 4 are bitwise equal.
func characterizationsIdentical(t *testing.T, got, want *Analysis) {
	t.Helper()
	floatsIdentical(t, "organ K", got.Organs.K.Data(), want.Organs.K.Data())
	floatsIdentical(t, "region K", got.Regions.K.Data(), want.Regions.K.Data())
}

// copyAnalysisK keeps Figures 3 and 4 of an analysis past the next
// Refresh, which may reuse their memory.
func copyAnalysisK(a *Analysis) *Analysis {
	o, r := *a.Organs, *a.Regions
	o.K, r.K = a.Organs.K.Clone(), a.Regions.K.Clone()
	return &Analysis{Organs: &o, Regions: &r}
}

// TestEngineInsertDeleteRoundTrip lands a batch of tweets — new users
// and returning ones — and then deletes every one of them. The engine
// carries its Equation 3 sums through both refreshes, subtracting each
// changed user's old Û row and adding its new one, and K must come back
// bitwise to where it started: exact sums make a subtraction undo an
// addition.
func TestEngineInsertDeleteRoundTrip(t *testing.T) {
	tweets := gen.Generate(gen.DefaultConfig(0.02)).Tweets
	d := pipeline.NewDataset()
	d.TrackDeletions()
	e := NewEngine(d, engineTestConfig())
	n := len(tweets) / 2
	for _, tw := range tweets[:n] {
		d.Process(tw)
	}
	start, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	before := copyAnalysisK(start)

	batch := tweets[n : n+400]
	for _, tw := range batch {
		d.Process(tw)
	}
	mid, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if bitsEqual(mid.Organs.K.Data(), before.Organs.K.Data()) {
		t.Fatal("the batch did not move Figure 3; fixture broken")
	}
	for _, tw := range batch {
		d.Delete(tw.ID)
	}
	end, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if e.Epoch() < 2 {
		t.Fatalf("refreshes were not incremental (epoch %d)", e.Epoch())
	}
	characterizationsIdentical(t, end, before)
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestEngineHistoryIndependent feeds two engines the same users in two
// different insertion orders, refreshing at different points, so their
// carried sums pass through unrelated histories. Each user's own tweets
// keep their order, so the final datasets agree; K must agree bitwise
// with each other and with Analyze.
func TestEngineHistoryIndependent(t *testing.T) {
	tweets := gen.Generate(gen.DefaultConfig(0.02)).Tweets
	byUser := map[int64][]twitter.Tweet{}
	var users []int64
	for _, tw := range tweets {
		if byUser[tw.User.ID] == nil {
			users = append(users, tw.User.ID)
		}
		byUser[tw.User.ID] = append(byUser[tw.User.ID], tw)
	}
	cfg := engineTestConfig()
	run := func(seed int64, every int) (*pipeline.Dataset, *Analysis) {
		t.Helper()
		order := append([]int64(nil), users...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		d := pipeline.NewDataset()
		e := NewEngine(d, cfg)
		var a *Analysis
		var err error
		for i, id := range order {
			for _, tw := range byUser[id] {
				d.Process(tw)
			}
			if i%every == every-1 {
				if a, err = e.Refresh(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if a, err = e.Refresh(); err != nil {
			t.Fatal(err)
		}
		return d, a
	}
	d1, a1 := run(1, 97)
	_, a2 := run(2, 331)
	characterizationsIdentical(t, a1, a2)
	want, err := Analyze(d1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	characterizationsIdentical(t, a1, want)
}

// TestEngineUnrepresentableResets plants a NaN in a user's Û row, then
// changes that user: subtracting the old row from the exact group sums
// fails, the refresh reports it, and the next refresh cold-builds a
// correct analysis from the store.
func TestEngineUnrepresentableResets(t *testing.T) {
	tweets := gen.Generate(gen.DefaultConfig(0.02)).Tweets
	cfg := engineTestConfig()
	d := pipeline.NewDataset()
	e := NewEngine(d, cfg)
	n := len(tweets) / 2
	for _, tw := range tweets[:n] {
		d.Process(tw)
	}
	if _, err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	planted := false
	for _, tw := range tweets[n:] {
		if row := e.att.RowOf(tw.User.ID); row >= 0 && d.Process(tw) == pipeline.CollectedUS {
			e.att.Matrix().RowView(row)[0] = math.NaN()
			planted = true
			break
		}
	}
	if !planted {
		t.Fatal("no returning user to plant a NaN on; fixture broken")
	}
	if _, err := e.Refresh(); !errors.Is(err, mat.ErrInexact) {
		t.Fatalf("refresh over a NaN row: %v, want ErrInexact", err)
	}
	got, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if e.Epoch() != 0 {
		t.Fatalf("recovery was not a cold build (epoch %d)", e.Epoch())
	}
	want, err := Analyze(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareAnalysesExceptClusters(t, got, want)
}

// compareAnalysesExceptClusters is compareAnalyses for a warm engine,
// whose clustering is converged-equal rather than bit-identical.
func compareAnalysesExceptClusters(t *testing.T, got, want *Analysis) {
	t.Helper()
	g, w := *got, *want
	g.Clusters, w.Clusters = nil, nil
	compareAnalyses(t, &g, &w)
}

// TestRefreshSpanStageAttrs checks the report.refresh span carries the
// per-stage times — patch, characterize, kmeans, assemble — next to its
// other attributes, and that a failed cold refresh, which sets all
// eight, still records its error.
func TestRefreshSpanStageAttrs(t *testing.T) {
	tr := trace.New(trace.Config{SampleRate: 1, RingSize: 16})
	d := pipeline.NewDataset()
	e := NewEngine(d, engineTestConfig())
	e.SetTracer(tr)
	if _, err := e.Refresh(); err == nil {
		t.Fatal("refresh of an empty dataset succeeded")
	}
	for _, tw := range gen.Generate(gen.DefaultConfig(0.01)).Tweets {
		d.Process(tw)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	spans := tr.Ring().Snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	stages := []string{"patch_us", "characterize_us", "kmeans_us", "assemble_us"}
	for i, want := range []map[string]bool{
		{"cold": true, "error": true}, // failed cold build: eight attributes
		{"cold": true},
		{},
	} {
		sp := spans[i]
		attrs := map[string]string{}
		for _, a := range sp.Attrs() {
			attrs[a.Key] = a.Value
		}
		for key := range want {
			if _, ok := attrs[key]; !ok {
				t.Fatalf("span %d lacks %q: %v", i, key, attrs)
			}
		}
		total := int64(0)
		for _, key := range append([]string{"dirty_rows", "epoch"}, stages...) {
			v, err := strconv.ParseInt(attrs[key], 10, 64)
			if err != nil || v < 0 {
				t.Fatalf("span %d attribute %s = %q", i, key, attrs[key])
			}
			if key != "dirty_rows" && key != "epoch" {
				total += v
			}
		}
		if total > sp.Duration.Microseconds() {
			t.Fatalf("span %d stages add up to %d µs, span took %v", i, total, sp.Duration)
		}
		if len(attrs) != 6+len(want) {
			t.Fatalf("span %d has attributes %v", i, attrs)
		}
	}
}
