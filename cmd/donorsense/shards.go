// Sharded collection mode (collect -shards N) and the merge subcommand.
//
// With -shards N the collector routes the stream by user-id hash across
// N shard workers under a pipeline.Supervisor: each shard owns its own
// dataset and checkpoint file (<base>-shard-<i>), crashes and stalls are
// detected and restarted from the last checkpoint, and at stream end the
// shard datasets are merged — bit-identically to a single-process run.
//
// `donorsense merge` performs the same merge offline, from the shard
// checkpoint files of a finished (or interrupted) sharded run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
	"donorsense/internal/twitter"
)

// shardSink routes the stream by user-id hash across shard workers under
// a pipeline.Supervisor and analyses the merged dataset at the end.
type shardSink struct {
	*collector
	sup *pipeline.Supervisor
}

func newShardSink(c *collector) (*shardSink, error) {
	cfg := pipeline.SupervisorConfig{
		Shards:           c.shards,
		CheckpointBase:   c.checkpoint,
		CheckpointEvery:  c.checkpointEvery,
		HeartbeatTimeout: c.heartbeatTimeout,
		RestartBackoff:   c.restartBackoff,
		BufferCap:        c.shardBuffer,
		Logger:           c.logger,
		Tracer:           c.tracer,
	}
	if c.reg != nil {
		cfg.Metrics = pipeline.NewShardMetrics(c.reg)
	}
	sup, err := pipeline.NewSupervisor(cfg)
	return &shardSink{collector: c, sup: sup}, err
}

func (s *shardSink) telemetry(srv *obs.Server) func(sec *obs.StatusSection) {
	srv.AddStatus("shards", shardStatusSection(s.sup))
	srv.AddHealthCheck("shards", shardHealth(s.sup))
	// Runtime memory only: shard datasets are owned by live workers.
	return nil
}

// fold runs the supervisor over the relayed stream, with a progress
// line of routed tweets, restarts and buffered tweets.
func (s *shardSink) fold(ctx context.Context, tweets <-chan twitter.Tweet) error {
	runDone := make(chan struct{})
	defer close(runDone)
	if s.progressEvery > 0 {
		go func() {
			tick := time.NewTicker(s.progressEvery)
			defer tick.Stop()
			for {
				select {
				case <-runDone:
					return
				case <-tick.C:
					restarts, buffered := 0, 0
					for _, st := range s.sup.Status() {
						restarts += st.Restarts
						buffered += st.BufferDepth
					}
					s.logger.Info("progress",
						"tweets", s.relayed.Load(), "shards", s.shards,
						"restarts", restarts, "buffered", buffered)
				}
			}
		}()
	}
	return s.sup.Run(ctx, tweets)
}

// flush has nothing to do: the shards checkpointed on drain.
func (s *shardSink) flush() error { return nil }

func (s *shardSink) result() (*pipeline.Dataset, *report.Engine, error) {
	s.logger.Info("merging shards", "shards", s.shards)
	d, err := s.sup.Merged()
	return d, nil, err
}

// cmdMerge folds the shard checkpoints of a sharded run into one dataset
// offline, optionally saving it as a single-file checkpoint and printing
// the full analysis.
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
