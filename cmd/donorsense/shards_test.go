package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"donorsense/internal/pipeline"
	"donorsense/internal/twitter"
)

func shardFaults(seed uint64) twitter.ReplayConfig {
	return twitter.ReplayConfig{
		Seed:      seed,
		FaultRate: 0.01,
		// Short server-side stalls that end with the server dropping the
		// connection itself. The client's watchdog is set far above this
		// (see shardArgs) so it can never fire spuriously on a loaded
		// machine and tear down a connection whose kernel buffer still
		// holds delivered tweets — these tests assert bit-identical
		// statistics, so even one silently lost tweet is a failure.
		StallDuration: 100 * time.Millisecond,
		RetryAfter:    10 * time.Millisecond,
	}
}

// shardArgs are collectArgs with the stall watchdog effectively disabled
// (the chaos stalls above self-terminate server-side); the watchdog path
// itself is exercised by the client unit tests and the durable suite.
func shardArgs(url string, extra ...string) []string {
	return append(collectArgs(url, "-stall-timeout", "10s"), extra...)
}

// TestCollectShardedChaosMatchesCleanRun: live sharded collection
// (-shards 3) under stream fault injection must print exactly the
// statistics of a fault-free single-process run — the end-to-end
// bit-identical guarantee of hash partitioning plus Dataset.Merge.
func TestCollectShardedChaosMatchesCleanRun(t *testing.T) {
	corpus := durableCorpus()

	clean := twitter.NewReplayServer(corpus, twitter.ReplayConfig{})
	cleanSrv := httptest.NewServer(clean.Handler())
	defer cleanSrv.Close()
	baseline := captureStdout(t, func() error {
		return cmdCollect(shardArgs(cleanSrv.URL))
	})

	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	chaos := twitter.NewReplayServer(corpus, shardFaults(31))
	chaosSrv := httptest.NewServer(chaos.Handler())
	defer chaosSrv.Close()
	sharded := captureStdout(t, func() error {
		return cmdCollect(shardArgs(chaosSrv.URL,
			"-shards", "3", "-checkpoint", ckpt, "-checkpoint-every", "20ms",
			"-restart-backoff", "1ms"))
	})

	if got, want := statsSection(t, sharded), statsSection(t, baseline); got != want {
		t.Errorf("sharded chaos run differs from clean single-process run:\n--- sharded ---\n%s\n--- clean ---\n%s", got, want)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(pipeline.ShardCheckpointPath(ckpt, i)); err != nil {
			t.Errorf("shard %d checkpoint missing after run: %v", i, err)
		}
	}
}

// TestCollectShardedResumeAndMergeSubcommand: a sharded collection
// interrupted between two sessions must resume from the per-shard
// checkpoints and end bit-identical to one uninterrupted single-process
// run — and `donorsense merge` over the leftover shard checkpoints must
// print the same statistics again, offline.
func TestCollectShardedResumeAndMergeSubcommand(t *testing.T) {
	corpus := durableCorpus()
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")

	clean := twitter.NewReplayServer(corpus, twitter.ReplayConfig{})
	cleanSrv := httptest.NewServer(clean.Handler())
	defer cleanSrv.Close()
	baseline := captureStdout(t, func() error {
		return cmdCollect(shardArgs(cleanSrv.URL))
	})

	half := len(corpus) / 2
	srv1 := httptest.NewServer(twitter.NewReplayServer(corpus[:half], shardFaults(41)).Handler())
	defer srv1.Close()
	_ = captureStdout(t, func() error {
		return cmdCollect(shardArgs(srv1.URL,
			"-shards", "3", "-checkpoint", ckpt, "-checkpoint-every", "20ms",
			"-restart-backoff", "1ms"))
	})

	srv2 := httptest.NewServer(twitter.NewReplayServer(corpus[half:], shardFaults(42)).Handler())
	defer srv2.Close()
	resumed := captureStdout(t, func() error {
		return cmdCollect(shardArgs(srv2.URL,
			"-shards", "3", "-checkpoint", ckpt, "-checkpoint-every", "20ms",
			"-restart-backoff", "1ms"))
	})
	if got, want := statsSection(t, resumed), statsSection(t, baseline); got != want {
		t.Errorf("resumed sharded run differs from uninterrupted run:\n--- resumed ---\n%s\n--- baseline ---\n%s", got, want)
	}

	// Offline merge of the shard checkpoints, explicit and auto-detected
	// shard counts, plus a merged single-file checkpoint.
	mergedCkpt := filepath.Join(t.TempDir(), "merged.ckpt")
	mergeOut := captureStdout(t, func() error {
		return cmdMerge([]string{"-checkpoint", ckpt, "-shards", "3", "-k", "6",
			"-out", mergedCkpt})
	})
	if got, want := statsSection(t, mergeOut), statsSection(t, baseline); got != want {
		t.Errorf("merge subcommand differs from uninterrupted run:\n--- merge ---\n%s\n--- baseline ---\n%s", got, want)
	}

	autoOut := captureStdout(t, func() error {
		return cmdMerge([]string{"-checkpoint", ckpt, "-k", "6"})
	})
	if got, want := statsSection(t, autoOut), statsSection(t, baseline); got != want {
		t.Errorf("auto-detected merge differs from uninterrupted run:\n--- merge ---\n%s\n--- baseline ---\n%s", got, want)
	}

	// The -out snapshot must round-trip to the same dataset.
	d, err := pipeline.LoadCheckpoint(mergedCkpt)
	if err != nil {
		t.Fatalf("load merged checkpoint: %v", err)
	}
	if d.Users() == 0 || d.USTweets() == 0 {
		t.Error("merged checkpoint round-tripped empty")
	}
}

func TestMergeSubcommandErrors(t *testing.T) {
	if err := cmdMerge([]string{}); err == nil {
		t.Error("merge without -checkpoint must error")
	}
	base := filepath.Join(t.TempDir(), "none.ckpt")
	if err := cmdMerge([]string{"-checkpoint", base}); err == nil {
		t.Error("merge with no shard checkpoint files must error")
	}
}
