package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"donorsense/internal/gen"
	"donorsense/internal/organ"
	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

// durableCorpus is shared by the chaos/checkpoint integration tests; the
// generator is deterministic, so every test sees the same stream.
func durableCorpus() []twitter.Tweet {
	return gen.Generate(gen.DefaultConfig(0.01)).Tweets
}

// statsSection extracts the deterministic statistics region of an
// analysis report — Table I through Figure 2(b) (tweet/user counts,
// geo-tag rate, organs-per-tweet histogram, Spearman validation) — the
// region the equality assertions compare. Later sections involve
// clustering and are not guaranteed byte-stable across identical inputs.
func statsSection(t *testing.T, out string) string {
	t.Helper()
	start := strings.Index(out, "=== Table I")
	end := strings.Index(out, "=== Figure 3")
	if start < 0 || end < 0 || end <= start {
		t.Fatalf("output missing Table I / Figure 3 markers:\n%s", out)
	}
	return out[start:end]
}

// collectArgs are the common fast-reconnect settings for tests.
func collectArgs(url string, extra ...string) []string {
	args := []string{
		"-url", url,
		"-k", "6",
		"-sweep", "",
		"-stall-timeout", "300ms",
		"-backoff", "2ms",
		"-ratelimit-backoff", "20ms",
	}
	return append(args, extra...)
}

func TestCollectThroughChaosMatchesCleanRun(t *testing.T) {
	corpus := durableCorpus()

	clean := twitter.NewReplayServer(corpus, twitter.ReplayConfig{})
	cleanSrv := httptest.NewServer(clean.Handler())
	defer cleanSrv.Close()
	cleanOut := captureStdout(t, func() error {
		return cmdCollect(collectArgs(cleanSrv.URL))
	})

	chaos := twitter.NewReplayServer(corpus, twitter.ReplayConfig{
		Seed:            11,
		FaultRate:       0.01,
		StallDuration:   5 * time.Second, // client's 300ms stall timer fires first
		RateLimitRate:   0.2,
		ServerErrorRate: 0.2,
		RetryAfter:      10 * time.Millisecond, // rounds to a "0" header
	})
	chaosSrv := httptest.NewServer(chaos.Handler())
	defer chaosSrv.Close()
	chaosOut := captureStdout(t, func() error {
		return cmdCollect(collectArgs(chaosSrv.URL))
	})

	if got, want := statsSection(t, chaosOut), statsSection(t, cleanOut); got != want {
		t.Errorf("chaos-run statistics differ from fault-free run:\n--- chaos ---\n%s\n--- clean ---\n%s", got, want)
	}
	st := chaos.Stats()
	if st.Disconnects+st.Stalls+st.Malformed+st.Oversized+st.Deletes+st.RateLimited+st.ServerError == 0 {
		t.Error("chaos server injected nothing; the run was not exercised")
	}
	t.Logf("chaos injected: %+v", st)
}

// TestCollectRejectsNonPositiveCheckpointEvery: with -checkpoint, an
// interval of zero or less is a flag error. Accepted, it made the fold
// save after every chunk and left /healthz reporting a stale checkpoint
// forever.
func TestCollectRejectsNonPositiveCheckpointEvery(t *testing.T) {
	corpus := durableCorpus()[:50]
	for _, every := range []string{"0", "-1s"} {
		srv := httptest.NewServer(twitter.NewReplayServer(corpus, twitter.ReplayConfig{}).Handler())
		err := cmdCollect(collectArgs(srv.URL, "-progress-every", "0",
			"-checkpoint", filepath.Join(t.TempDir(), "state.ckpt"), "-checkpoint-every", every))
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "-checkpoint-every") {
			t.Errorf("-checkpoint-every %s: err = %v, want a flag error", every, err)
		}
	}
}

func TestCollectCheckpointResumeMatchesUninterrupted(t *testing.T) {
	corpus := durableCorpus()
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")

	// Baseline: one uninterrupted collection of the full corpus.
	clean := twitter.NewReplayServer(corpus, twitter.ReplayConfig{})
	cleanSrv := httptest.NewServer(clean.Handler())
	defer cleanSrv.Close()
	baseline := captureStdout(t, func() error {
		return cmdCollect(collectArgs(cleanSrv.URL))
	})

	// The same corpus split into two sessions around a collector restart:
	// session 1 collects the first half under chaos and checkpoints
	// (periodically and at shutdown); session 2 starts from the
	// checkpoint and collects the rest.
	faults := func(seed uint64) twitter.ReplayConfig {
		return twitter.ReplayConfig{
			Seed:          seed,
			FaultRate:     0.01,
			StallDuration: 5 * time.Second,
			RetryAfter:    10 * time.Millisecond,
		}
	}
	half := len(corpus) / 2
	srv1 := httptest.NewServer(twitter.NewReplayServer(corpus[:half], faults(21)).Handler())
	defer srv1.Close()
	captureStdout(t, func() error {
		return cmdCollect(collectArgs(srv1.URL, "-checkpoint", ckpt, "-checkpoint-every", "20ms"))
	})
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("session 1 left no checkpoint: %v", err)
	}

	srv2 := httptest.NewServer(twitter.NewReplayServer(corpus[half:], faults(22)).Handler())
	defer srv2.Close()
	resumed := captureStdout(t, func() error {
		return cmdCollect(collectArgs(srv2.URL, "-checkpoint", ckpt, "-checkpoint-every", "20ms"))
	})

	if got, want := statsSection(t, resumed), statsSection(t, baseline); got != want {
		t.Errorf("restart-resumed statistics differ from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", got, want)
	}

	// The periodic saves and the final save must never leave torn or
	// temporary files next to the snapshot — only the snapshot itself and
	// its rotated .bak predecessor.
	entries, err := os.ReadDir(filepath.Dir(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(ckpt) && e.Name() != filepath.Base(pipeline.CheckpointBackupPath(ckpt)) {
			t.Errorf("stray file %q beside the checkpoint", e.Name())
		}
	}
}

// TestCollectWorkersThroughChaosMatchesCleanRun: live collection with
// -workers 4 under fault injection must print the exact same Table I /
// Figure 2 statistics as a fault-free sequential run — the bit-identical
// guarantee of the chunked parallel ingest, end to end through the CLI.
func TestCollectWorkersThroughChaosMatchesCleanRun(t *testing.T) {
	corpus := durableCorpus()

	clean := twitter.NewReplayServer(corpus, twitter.ReplayConfig{})
	cleanSrv := httptest.NewServer(clean.Handler())
	defer cleanSrv.Close()
	cleanOut := captureStdout(t, func() error {
		return cmdCollect(collectArgs(cleanSrv.URL))
	})

	chaos := twitter.NewReplayServer(corpus, twitter.ReplayConfig{
		Seed:            31,
		FaultRate:       0.01,
		StallDuration:   5 * time.Second,
		RateLimitRate:   0.2,
		ServerErrorRate: 0.2,
		RetryAfter:      10 * time.Millisecond,
	})
	chaosSrv := httptest.NewServer(chaos.Handler())
	defer chaosSrv.Close()
	parallelOut := captureStdout(t, func() error {
		return cmdCollect(collectArgs(chaosSrv.URL, "-workers", "4"))
	})

	if got, want := statsSection(t, parallelOut), statsSection(t, cleanOut); got != want {
		t.Errorf("parallel chaos-run statistics differ from sequential fault-free run:\n--- workers=4 chaos ---\n%s\n--- sequential clean ---\n%s", got, want)
	}
}

// TestCollectResumeFromBackupIsReported: when the primary checkpoint
// fails its checksum, collect resumes from the .bak backup beside it,
// and says so: a warning in the /statusz errors section and one count
// on donorsense_checkpoint_fallbacks_total.
func TestCollectResumeFromBackupIsReported(t *testing.T) {
	corpus := matchedCorpus()
	backup := processAll(corpus[:len(corpus)/2])
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	// Two saves leave the first one as the .bak backup.
	for i := 0; i < 2; i++ {
		if err := backup.SaveCheckpoint(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // a payload byte: the checksum fails
	if err := os.WriteFile(ckpt, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	pages := collectWithTelemetry(t, "-checkpoint", ckpt)
	if !strings.Contains(pages.metrics, "\ndonorsense_checkpoint_fallbacks_total 1\n") {
		t.Errorf("/metrics does not count one checkpoint fallback")
	}
	warned := false
	for _, sec := range pages.status.Sections {
		if sec.Name != "errors" || sec.Table == nil {
			continue
		}
		for _, row := range sec.Table.Rows {
			warned = warned || (row[1] == "WARN" && strings.Contains(row[2], "resumed from its backup"))
		}
	}
	if !warned {
		t.Errorf("/statusz errors section has no fallback warning")
	}

	// The collect resumed from the backup: its counters carry on from
	// the backup's.
	got, err := pipeline.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want := backup.Stats().TotalCollected + processAll(corpus).Stats().TotalCollected
	if n := got.Stats().TotalCollected; n != want {
		t.Errorf("tweets collected after resume = %d, want %d", n, want)
	}
	// The good backup is still the backup: the corrupt primary was not
	// demoted over it.
	bak, err := pipeline.LoadCheckpoint(pipeline.CheckpointBackupPath(ckpt))
	if err != nil {
		t.Fatalf("backup after the resume: %v", err)
	}
	if n, want := bak.Stats().TotalCollected, backup.Stats().TotalCollected; n != want {
		t.Errorf("backup holds %d tweets collected, want the %d it was resumed from", n, want)
	}
}

// matchedCorpus is durableCorpus as a collector receives it: only the
// tweets the replay's track filter passes, in corpus order.
func matchedCorpus() []twitter.Tweet {
	filter := twitter.NewTrackFilter(organ.TrackTerms())
	var out []twitter.Tweet
	for _, tw := range durableCorpus() {
		if filter.Matches(tw.Text) {
			out = append(out, tw)
		}
	}
	return out
}

// processAll folds tweets into a fresh dataset one at a time: the
// sequential reference every collect path must reproduce.
func processAll(tweets []twitter.Tweet) *pipeline.Dataset {
	d := pipeline.NewDataset()
	for _, tw := range tweets {
		d.Process(tw)
	}
	return d
}
