// donorsense merge: fold the <base>-shard-<i> checkpoint files of an
// earlier sharded collection into one dataset offline, optionally save
// it as a single checkpoint that collect -checkpoint resumes from, and
// print the full analysis.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
)

// cmdMerge is the merge subcommand. The shard files of a run hold a
// user-id partition of its stream, and any user-id partition merges
// into the statistics of one collector over the whole stream (see
// Dataset.Merge).
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	base := fs.String("checkpoint", "", "shard checkpoint base path (reads <base>-shard-<i>)")
	shards := fs.Int("shards", 0, "shard count (0 = probe files until one is missing)")
	out := fs.String("out", "", "write the merged dataset as a single checkpoint to this path")
	noAnalyze := fs.Bool("no-analyze", false, "merge (and -out save) only; skip printing the analysis")
	k := fs.Int("k", 12, "user cluster count (Figure 7)")
	sweep := fs.String("sweep", "", "comma-separated ks for the model-selection sweep")
	sil := fs.Int("silhouette-sample", 2000, "silhouette sample size (0 = exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" {
		return errors.New("merge: -checkpoint is required")
	}
	logger := obs.Logger("merge")

	n := *shards
	if n == 0 {
		for {
			if _, err := os.Stat(pipeline.ShardCheckpointPath(*base, n)); err != nil {
				break
			}
			n++
		}
		if n == 0 {
			return fmt.Errorf("merge: no shard checkpoints found at %s", pipeline.ShardCheckpointPath(*base, 0))
		}
	}

	var merged *pipeline.Dataset
	for i := 0; i < n; i++ {
		path := pipeline.ShardCheckpointPath(*base, i)
		d, usedBackup, err := pipeline.LoadCheckpointFallback(path)
		if err != nil {
			return fmt.Errorf("merge: shard %d: %w", i, err)
		}
		if usedBackup {
			logger.Warn("shard restored from backup checkpoint", "shard", i, "path", path)
		}
		if merged == nil {
			merged = d
		} else {
			merged.Merge(d)
		}
	}
	logger.Info("merged shard checkpoints",
		"shards", n, "us_tweets", merged.USTweets(), "users", merged.Users())

	if *out != "" {
		if err := merged.SaveCheckpoint(*out); err != nil {
			return err
		}
		logger.Info("saved merged checkpoint", "path", *out)
	}
	if *noAnalyze {
		return nil
	}
	if merged.Users() == 0 {
		return fmt.Errorf("merge: no US users in the shard checkpoints; nothing to analyze")
	}
	cfg, err := analysisConfig(*k, *sweep, *sil, 1)
	if err != nil {
		return err
	}
	return analyzeDataset(merged, nil, cfg, nil, "")
}
