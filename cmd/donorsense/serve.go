// donorsense serve: a standalone read-only query API over a checkpoint.
// It loads the checkpoint, steps the live step once over it (a
// warm-restored refresh, the top mentioners and the publish behind
// /api/...), and optionally re-loads and steps again when the checkpoint
// file changes — so a collector writing checkpoints and a serve process
// reading them compose into a live pipeline without sharing memory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/pipeline"
	"donorsense/internal/serve"
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	checkpoint := fs.String("checkpoint", "", "checkpoint file to serve (required)")
	addr := fs.String("addr", ":9090", "listen address for the telemetry + /api endpoints")
	reloadEvery := fs.Duration("reload-every", 10*time.Second, "poll the checkpoint mtime and republish on change (0 = serve the initial load only)")
	k := fs.Int("k", 12, "user cluster count (Figure 7)")
	sil := fs.Int("silhouette-sample", 2000, "silhouette sample size (0 = exact)")
	workers := fs.Int("workers", 0, "analysis workers (0 = GOMAXPROCS)")
	top := fs.Int("serve-top", 250, "top mentioning users retained per snapshot for /api/top")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logJSON := fs.Bool("log-json", false, "emit logs as single-line JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkpoint == "" {
		return fmt.Errorf("serve: -checkpoint is required")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	obs.SetLogger(obs.NewLogger(os.Stderr, level, *logJSON))
	logger := obs.Logger("serve")

	cfg, _ := analysisConfig(*k, "", *sil, *workers) // no sweep, so no parse error
	pub := serve.NewPublisher()
	live := &serve.Live{Analysis: cfg, Every: *reloadEvery, Top: *top, Publisher: pub, Logger: logger}

	// load reads the checkpoint and steps the live step once over it. It
	// runs on the main goroutine and then on the reload poller — never
	// concurrently, and the dataset it loads is private to the step.
	load := func() (time.Time, error) {
		fi, err := os.Stat(*checkpoint)
		if err != nil {
			return time.Time{}, err
		}
		d, usedBackup, err := pipeline.LoadCheckpointFallback(*checkpoint)
		if err == nil && usedBackup {
			if pub.Current() != nil {
				// The backup is older than the snapshot served: keep serving that.
				err = fmt.Errorf("%w; not replacing the served snapshot with the older backup", pipeline.ErrCheckpointCorrupt)
			} else {
				logger.Warn("checkpoint unreadable; serving its backup",
					"path", *checkpoint, "backup", pipeline.CheckpointBackupPath(*checkpoint))
			}
		}
		if err != nil {
			return time.Time{}, fmt.Errorf("load checkpoint: %w", err)
		}
		if d.Users() == 0 {
			return time.Time{}, fmt.Errorf("checkpoint has no US users; nothing to serve")
		}
		live.Load(d)
		if err := live.Step(); err != nil {
			return time.Time{}, err
		}
		snap := pub.Current()
		logger.Info("snapshot published",
			"seq", snap.Seq, "epoch", snap.Epoch, "users", snap.Users,
			"etag", snap.ETag(), "checkpoint_mtime", fi.ModTime().Format(time.RFC3339))
		return fi.ModTime(), nil
	}

	mtime, err := load()
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	srv := obs.NewServer(reg)
	mountQueryAPI(srv, reg, pub)
	srv.AddStatus("analytics", live.Status)
	srv.AddStatus("memory", obs.MemStatsStatusSection(nil))
	srv.AddHealthCheck("snapshot", func() (any, error) {
		st := pub.Stats()
		detail := map[string]any{"seq": st.Seq, "epoch": st.Epoch}
		if st.Draining {
			return detail, fmt.Errorf("draining")
		}
		return detail, nil
	})

	ctx, stop := obs.SignalContext()
	defer stop()

	if *reloadEvery > 0 {
		go func() {
			tick := time.NewTicker(*reloadEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				if fi, err := os.Stat(*checkpoint); err != nil || !fi.ModTime().After(mtime) {
					continue
				}
				if m, err := load(); err != nil {
					logger.Warn("checkpoint reload failed; keeping current snapshot", "err", err)
				} else {
					mtime = m
				}
			}
		}()
	}

	logger.Info("serving", "addr", *addr, "checkpoint", *checkpoint,
		"reload_every", reloadEvery.String())
	// The server's bounded Shutdown drains the requests in flight.
	if err := <-srv.Start(ctx, *addr); err != nil {
		return err
	}
	logger.Info("serve stopped", "stats", fmt.Sprintf("%+v", pub.Stats()))
	return nil
}
