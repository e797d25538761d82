package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"

	"donorsense/internal/gen"
	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
)

// servedBodies answers every DefaultPaths request through the handler
// and returns the bodies without the fields that count the process's
// history rather than describe the answer: the publish sequence, the
// attention epoch, the ETag, the build time and the refresh count.
func servedBodies(t *testing.T, p *Publisher) map[string]string {
	t.Helper()
	h := NewHandler(p)
	out := make(map[string]string, len(DefaultPaths))
	for _, path := range DefaultPaths {
		rec := get(t, h, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, k := range []string{"seq", "epoch", "etag", "built", "refreshes"} {
			delete(doc, k)
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = string(b)
	}
	return out
}

// TestLiveAnswersSurviveRestart drives a live step over a generated
// corpus, checkpoints it with its warm state, and restarts: a second
// step over the loaded checkpoint, stepped once, must serve every
// DefaultPaths body byte-equal to the first, /api/clusters included:
// the same ids, centroids, sizes, shares, k and inertia.
func TestLiveAnswersSurviveRestart(t *testing.T) {
	cfg := report.DefaultAnalysisConfig()
	cfg.KUsers = 6
	cfg.SweepKs = nil
	cfg.SilhouetteSample = 0
	tweets := gen.Generate(gen.DefaultConfig(0.01)).Tweets

	d := pipeline.NewDataset()
	before := NewPublisher()
	live := &Live{Analysis: cfg, Top: 50, Publisher: before, Logger: obs.Logger("analytics")}
	live.Load(d)
	for i, tw := range tweets {
		d.Process(tw)
		if i%2000 == 1999 || i == len(tweets)-1 {
			live.Tick()
		}
	}
	if before.Seq() < 2 {
		t.Fatalf("the live step published %d times, want several", before.Seq())
	}
	ckpt := filepath.Join(t.TempDir(), "live.ckpt")
	live.SaveWarm()
	if err := d.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}

	loaded, err := pipeline.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	after := NewPublisher()
	restarted := &Live{Analysis: cfg, Top: 50, Publisher: after, Logger: obs.Logger("analytics")}
	restarted.Load(loaded)
	if err := restarted.Step(); err != nil {
		t.Fatal(err)
	}

	want, got := servedBodies(t, before), servedBodies(t, after)
	for _, path := range DefaultPaths {
		if got[path] != want[path] {
			t.Errorf("%s differs after a restart:\nbefore %s\nafter  %s", path, want[path], got[path])
		}
	}
}
