package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"donorsense/internal/obs/trace"
	"donorsense/internal/twitter"
)

// SupervisorConfig configures sharded, crash-tolerant collection.
type SupervisorConfig struct {
	// Shards is the number of hash partitions (>= 1). Tweets are routed by
	// user-id hash (twitter.ShardIndex), so every tweet of a user lands on
	// the same shard in arrival order.
	Shards int

	// CheckpointBase, when non-empty, enables durable per-shard state:
	// shard i checkpoints to ShardCheckpointPath(CheckpointBase, i). Empty
	// disables durability — a crashed shard restarts empty and its routed
	// tweets since startup are re-folded from the replay buffer only, so
	// tweets acked before the crash are lost. Chaos-tolerant runs should
	// always set it.
	CheckpointBase string

	// CheckpointEvery is the time-based checkpoint interval (default 30s).
	CheckpointEvery time.Duration
	// CheckpointEveryN additionally checkpoints after N folded tweets
	// (0 disables the count trigger).
	CheckpointEveryN int

	// HeartbeatTimeout is how long a shard with pending work may go
	// without progress before the monitor declares it stalled, abandons
	// the incarnation, and restarts from the last checkpoint (default
	// 10s; <= 0 disables stall detection).
	HeartbeatTimeout time.Duration

	// RestartBackoff is the delay before the first restart of a crashed
	// shard, doubling per consecutive failure up to MaxRestartBackoff
	// (defaults 50ms / 5s). A restart that makes durable progress resets
	// the backoff.
	RestartBackoff    time.Duration
	MaxRestartBackoff time.Duration

	// BufferCap bounds each shard's replay buffer (default 8192). When a
	// shard is down and its buffer fills, the router blocks — bounded
	// backpressure; tweets are never dropped. Healthy shards keep
	// consuming their own buffers meanwhile.
	BufferCap int

	Metrics *ShardMetrics
	Logger  *slog.Logger

	// Tracer, when set, continues sampled tweets' traces through each
	// shard's fold and checkpoint stages, tagging every span with the
	// shard and its restart incarnation (1-based, incremented per
	// restart) so a waterfall attributes work to the incarnation that
	// actually ran it.
	Tracer *trace.Tracer

	// SaveHook, when set, wraps every checkpoint save: the shard calls
	// SaveHook(shard, save) instead of save(). Chaos tests use it to
	// crash a shard before, during, or after the atomic rename.
	SaveHook func(shard int, save func() error) error
	// ProcessHook, when set, is invoked before each tweet is folded, with
	// the shard's 1-based sequence number. Chaos tests use it to stall or
	// panic a shard mid-stream.
	ProcessHook func(shard int, seq uint64, t *twitter.Tweet)
}

func (c *SupervisorConfig) withDefaults() SupervisorConfig {
	cfg := *c
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 30 * time.Second
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.RestartBackoff <= 0 {
		cfg.RestartBackoff = 50 * time.Millisecond
	}
	if cfg.MaxRestartBackoff <= 0 {
		cfg.MaxRestartBackoff = 5 * time.Second
	}
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = 8192
	}
	return cfg
}

// pollEvery is the monitor cadence: a quarter of the shorter of
// HeartbeatTimeout and CheckpointEvery, clamped to [1ms, 100ms].
func (c *SupervisorConfig) pollEvery() time.Duration {
	poll := 100 * time.Millisecond
	if c.HeartbeatTimeout > 0 && c.HeartbeatTimeout/4 < poll {
		poll = c.HeartbeatTimeout / 4
	}
	if c.CheckpointEvery/4 < poll {
		poll = c.CheckpointEvery / 4
	}
	return max(poll, time.Millisecond)
}

// Supervisor runs N shard workers over a hash-partitioned tweet stream
// and keeps them alive: it detects crashed or stalled shards via
// heartbeats, restarts them from their last checkpoint with bounded
// exponential backoff, and applies bounded backpressure (never loss)
// while a shard is down.
//
// Delivery to shard datasets is exactly-once across crashes: every
// routed tweet gets a per-shard sequence number, stays in the shard's
// replay buffer until a checkpoint covering it is durably saved, and a
// restarted incarnation skips buffered tweets at or below the restored
// dataset cursor. This holds even for a crash between the checkpoint
// rename and the acknowledgement.
type Supervisor struct {
	cfg     SupervisorConfig
	logger  *slog.Logger
	shards  []*shard
	started atomic.Bool
	ran     atomic.Bool
}

// shard is one hash partition: its replay buffer, the currently running
// incarnation, and health state read by the monitor.
type shard struct {
	id    int
	label string
	sup   *Supervisor

	mu   sync.Mutex
	cond *sync.Cond
	// buf holds routed-but-unacked tweets; buf[0] has sequence baseSeq.
	// Tweets are acked (trimmed) only once a checkpoint covering them is
	// durably on disk.
	buf     []twitter.Tweet
	baseSeq uint64
	closed  bool // upstream drained; shard finishes after its buffer
	cur     *incarnation
	// pos is the sequence of the last tweet the current incarnation
	// folded; inflight marks it busy folding or saving. The monitor
	// combines them with lastBeat to tell "stuck" from "idle".
	pos      uint64
	inflight bool
	lastBeat time.Time
	done     bool
	final    *Dataset
	restarts int
	stalls   int
	// incarnations counts run attempts (1 = the original); the current
	// incarnation's number tags its spans and ShardStatus.
	incarnations int

	// preload carries the checkpoint Run loaded for sequence alignment to
	// the first incarnation, saving a duplicate disk read.
	preload       *Dataset
	preloadBackup bool

	// saveMu serializes checkpoint saves across incarnations so an
	// abandoned (stalled, not dead) incarnation cannot interleave a stale
	// write with its replacement's.
	saveMu sync.Mutex
}

// incarnation is one run attempt of a shard worker.
type incarnation struct {
	crashed atomic.Bool // killed by Kill or the stall monitor
	// abandoned is closed by the monitor when it gives up on a stalled
	// incarnation, letting the manager restart without waiting for the
	// wedged goroutine.
	abandoned chan struct{}
	// progressed records a durable checkpoint ack; it resets restart
	// backoff.
	progressed atomic.Bool
}

var (
	errShardKilled = errors.New("pipeline: shard incarnation killed")
	errShardStale  = errors.New("pipeline: stale shard incarnation")
)

// NewSupervisor validates the configuration and builds an idle
// supervisor; Run starts it.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("pipeline: supervisor needs >= 1 shard, got %d", cfg.Shards)
	}
	s := &Supervisor{cfg: cfg.withDefaults(), logger: cfg.Logger}
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh := &shard{id: i, label: strconv.Itoa(i), sup: s, baseSeq: 1}
		sh.cond = sync.NewCond(&sh.mu)
		s.shards[i] = sh
		if m := s.cfg.Metrics; m != nil {
			m.touch(sh.label)
		}
	}
	return s, nil
}

// Run routes the stream across the shards until it closes or ctx is
// cancelled, then waits for every shard to drain, take a final
// checkpoint, and retire. It is single-use.
func (s *Supervisor) Run(ctx context.Context, tweets <-chan twitter.Tweet) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("pipeline: supervisor already run")
	}
	defer s.ran.Store(true)

	// Align each shard's sequence space with its persisted cursor, so a
	// resumed session's replay skipping agrees with what the previous
	// session durably folded. The loaded dataset is handed to the first
	// incarnation as a preload.
	if s.cfg.CheckpointBase != "" {
		for _, sh := range s.shards {
			d, usedBackup, err := LoadCheckpointFallback(ShardCheckpointPath(s.cfg.CheckpointBase, sh.id))
			switch {
			case err == nil:
				sh.baseSeq = d.Cursor() + 1
				sh.preload, sh.preloadBackup = d, usedBackup
			case os.IsNotExist(err):
			default:
				return fmt.Errorf("pipeline: shard %d: restore checkpoint: %w", sh.id, err)
			}
		}
	}

	monStop := make(chan struct{})
	go s.monitor(monStop)
	go func() { // prompt wakeups on cancellation; monitor ticks cover the rest
		select {
		case <-ctx.Done():
			s.broadcastAll()
		case <-monStop:
		}
	}()

	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			s.manage(ctx, sh)
		}(sh)
	}

	router := twitter.ShardRouter{Shards: s.cfg.Shards}
route:
	for {
		select {
		case <-ctx.Done():
			break route
		case t, ok := <-tweets:
			if !ok {
				break route
			}
			if err := s.shards[router.Shard(&t)].enqueue(ctx, t); err != nil {
				break route
			}
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	wg.Wait()
	close(monStop)
	return nil
}

func (s *Supervisor) broadcastAll() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// Kill crashes the live incarnation of one shard — the fault injector
// the chaos tests drive. The supervisor restarts the shard from its last
// checkpoint. Reports whether a live incarnation was killed.
func (s *Supervisor) Kill(shardIndex int) bool {
	if shardIndex < 0 || shardIndex >= len(s.shards) {
		return false
	}
	sh := s.shards[shardIndex]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cur == nil || sh.done {
		return false
	}
	sh.cur.crashed.Store(true)
	sh.cond.Broadcast()
	return true
}

// Merged folds every shard's final dataset into one and returns it. Call
// after Run returns; errors if any shard failed to retire cleanly.
func (s *Supervisor) Merged() (*Dataset, error) {
	if !s.ran.Load() {
		return nil, errors.New("pipeline: Merged before Run completed")
	}
	start := time.Now()
	var out *Dataset
	for _, sh := range s.shards {
		sh.mu.Lock()
		d, done := sh.final, sh.done
		sh.mu.Unlock()
		if !done || d == nil {
			return nil, fmt.Errorf("pipeline: shard %d did not retire cleanly", sh.id)
		}
		if out == nil {
			out = d
		} else {
			out.Merge(d)
		}
	}
	if m := s.cfg.Metrics; m != nil {
		m.mergeSeconds.Since(start)
		m.merges.Inc()
	}
	return out, nil
}

// ShardStatus is a point-in-time health snapshot of one shard.
type ShardStatus struct {
	Shard int
	Live  bool // an incarnation is currently running
	Done  bool
	// Incarnation is the current (or last) run attempt, 1-based; it
	// increments on every restart.
	Incarnation  int
	Restarts     int
	Stalls       int
	BufferDepth  int
	HeartbeatAge time.Duration
}

// Status reports every shard's health, for logs and health endpoints.
func (s *Supervisor) Status() []ShardStatus {
	now := time.Now()
	out := make([]ShardStatus, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		st := ShardStatus{
			Shard:       sh.id,
			Live:        sh.cur != nil,
			Done:        sh.done,
			Incarnation: sh.incarnations,
			Restarts:    sh.restarts,
			Stalls:      sh.stalls,
			BufferDepth: len(sh.buf),
		}
		if !sh.lastBeat.IsZero() {
			st.HeartbeatAge = now.Sub(sh.lastBeat)
		}
		sh.mu.Unlock()
		out[i] = st
	}
	return out
}

// manage keeps one shard alive: it launches incarnations, and on crash
// or abandonment restarts with bounded exponential backoff.
func (s *Supervisor) manage(ctx context.Context, sh *shard) {
	delay := s.cfg.RestartBackoff
	for {
		inc := &incarnation{abandoned: make(chan struct{})}
		sh.mu.Lock()
		if sh.done {
			sh.mu.Unlock()
			return
		}
		sh.cur = inc
		sh.incarnations++
		incNum := sh.incarnations
		sh.inflight = false
		sh.lastBeat = time.Now()
		sh.mu.Unlock()

		exit := make(chan error, 1)
		go func() { exit <- sh.run(ctx, inc, incNum) }()
		var err error
		select {
		case err = <-exit:
		case <-inc.abandoned:
			err = fmt.Errorf("shard %d heartbeat stale for %s with pending work", sh.id, s.cfg.HeartbeatTimeout)
		}
		sh.retire(inc)
		if err == nil || errors.Is(err, errShardStale) {
			return
		}
		if ctx.Err() != nil {
			s.logger.Warn("shard down at shutdown", "shard", sh.id, "err", err)
			return
		}
		if inc.progressed.Load() {
			delay = s.cfg.RestartBackoff
		}
		sh.mu.Lock()
		sh.restarts++
		sh.mu.Unlock()
		if m := s.cfg.Metrics; m != nil {
			m.restarts.With(sh.label).Inc()
		}
		s.logger.Warn("restarting shard", "shard", sh.id, "err", err, "backoff", delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return
		}
		if delay *= 2; delay > s.cfg.MaxRestartBackoff {
			delay = s.cfg.MaxRestartBackoff
		}
	}
}

// retire clears the shard's current-incarnation pointer if it still
// points at inc, so a wedged abandoned goroutine can never act as the
// live worker again.
func (sh *shard) retire(inc *incarnation) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cur == inc {
		sh.cur = nil
	}
}

// enqueue appends one routed tweet to the shard's replay buffer,
// blocking (bounded backpressure) while the buffer is at capacity.
func (sh *shard) enqueue(ctx context.Context, t twitter.Tweet) error {
	m := sh.sup.cfg.Metrics
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for len(sh.buf) >= sh.sup.cfg.BufferCap {
		if err := ctx.Err(); err != nil {
			return err
		}
		if m != nil {
			m.bufferFull.With(sh.label).Inc()
		}
		sh.cond.Wait()
	}
	sh.buf = append(sh.buf, t)
	if m != nil {
		m.routed.With(sh.label).Inc()
		m.bufferDepth.With(sh.label).Set(float64(len(sh.buf)))
	}
	sh.cond.Broadcast()
	return nil
}

// ack trims the replay buffer through sequence upTo: those tweets are
// covered by a durable checkpoint and will never need replay.
func (sh *shard) ack(inc *incarnation, upTo uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cur != inc || upTo < sh.baseSeq {
		return
	}
	drop := int(upTo - sh.baseSeq + 1)
	if drop > len(sh.buf) {
		drop = len(sh.buf)
	}
	sh.buf = sh.buf[:copy(sh.buf, sh.buf[drop:])]
	sh.baseSeq += uint64(drop)
	if m := sh.sup.cfg.Metrics; m != nil {
		m.bufferDepth.With(sh.label).Set(float64(len(sh.buf)))
	}
	sh.cond.Broadcast()
}

// finish publishes the incarnation's dataset as the shard's final result.
func (sh *shard) finish(inc *incarnation, d *Dataset) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cur != inc {
		return
	}
	sh.final = d
	sh.done = true
	sh.cond.Broadcast()
}

func (sh *shard) isCurrent(inc *incarnation) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.cur == inc
}

// checkpointPath returns this shard's checkpoint path ("" when
// durability is disabled).
func (sh *shard) checkpointPath() string {
	if sh.sup.cfg.CheckpointBase == "" {
		return ""
	}
	return ShardCheckpointPath(sh.sup.cfg.CheckpointBase, sh.id)
}

// restore produces the incarnation's starting dataset: the preload Run
// cached (first incarnation only), else the shard checkpoint, else
// empty.
func (sh *shard) restore() (*Dataset, error) {
	sh.mu.Lock()
	d, usedBackup := sh.preload, sh.preloadBackup
	sh.preload, sh.preloadBackup = nil, false
	sh.mu.Unlock()
	if d == nil && sh.checkpointPath() != "" {
		var err error
		d, usedBackup, err = LoadCheckpointFallback(sh.checkpointPath())
		if err != nil {
			if !os.IsNotExist(err) {
				return nil, fmt.Errorf("shard %d: restore checkpoint: %w", sh.id, err)
			}
			d, usedBackup = nil, false
		}
	}
	if usedBackup {
		sh.sup.logger.Warn("shard restored from backup checkpoint", "shard", sh.id)
		if m := sh.sup.cfg.Metrics; m != nil {
			m.fallbacks.Inc()
		}
	}
	if d == nil {
		d = NewDataset()
	}
	return d, nil
}

// shardState is what the worker loop decided to do next.
type shardState int

const (
	shardFold shardState = iota
	shardCheckpoint
	shardDrained
	shardShutdown
)

// run is one incarnation of a shard worker: restore, fold buffered
// tweets past the restored cursor, checkpoint periodically, exit on
// drain, kill, or cancellation. Panics (from chaos hooks or bugs)
// surface as errors so the manager restarts the shard.
func (sh *shard) run(ctx context.Context, inc *incarnation, incNum int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("shard %d panicked: %v", sh.id, r)
		}
	}()
	cfg := &sh.sup.cfg
	d, err := sh.restore()
	if err != nil {
		return err
	}
	if cfg.Tracer != nil {
		// Scope this incarnation's spans before any fold: a waterfall then
		// shows which incarnation folded each sampled tweet, and a trace
		// that straddles a restart carries both incarnation numbers.
		d.SetTracer(cfg.Tracer)
		d.SetTraceScope(sh.label, incNum)
	}

	cursor := d.Cursor()
	lastSaved := cursor
	lastSave := time.Now()
	sinceSave := 0

	// checkpoint persists the dataset (unless nothing changed and this is
	// not the final save) and then acks the covered prefix of the replay
	// buffer. With durability disabled it just acks: the fold itself is
	// the only copy.
	checkpoint := func(final bool) error {
		if sh.checkpointPath() == "" {
			sh.ack(inc, cursor)
			return nil
		}
		if cursor == lastSaved && !final {
			return nil
		}
		save := func() error {
			sh.saveMu.Lock()
			defer sh.saveMu.Unlock()
			if !sh.isCurrent(inc) {
				return errShardStale
			}
			return d.SaveCheckpoint(sh.checkpointPath())
		}
		var serr error
		if cfg.SaveHook != nil {
			serr = cfg.SaveHook(sh.id, save)
		} else {
			serr = save()
		}
		if serr != nil {
			return serr
		}
		sh.ack(inc, cursor)
		lastSaved = cursor
		lastSave = time.Now()
		sinceSave = 0
		inc.progressed.Store(true)
		return nil
	}

	for {
		var t twitter.Tweet
		var seq uint64
		sh.mu.Lock()
		sh.inflight = false
		sh.pos = cursor
		sh.lastBeat = time.Now()
		state := shardFold
	wait:
		for {
			if sh.cur != inc {
				sh.mu.Unlock()
				return errShardStale
			}
			if inc.crashed.Load() {
				sh.mu.Unlock()
				return errShardKilled
			}
			if ctx.Err() != nil {
				state = shardShutdown
				break wait
			}
			if cursor+1 < sh.baseSeq {
				sh.mu.Unlock()
				return fmt.Errorf("shard %d: cursor %d behind replay buffer base %d (acked past checkpoint?)", sh.id, cursor, sh.baseSeq)
			}
			if off := cursor + 1 - sh.baseSeq; off < uint64(len(sh.buf)) {
				t, seq = sh.buf[off], cursor+1
				break wait
			}
			if sh.closed {
				state = shardDrained
				break wait
			}
			if cursor != lastSaved && time.Since(lastSave) >= cfg.CheckpointEvery {
				state = shardCheckpoint
				break wait
			}
			sh.cond.Wait()
		}
		if state != shardDrained && state != shardShutdown {
			sh.inflight = true
			sh.lastBeat = time.Now()
		}
		sh.mu.Unlock()

		switch state {
		case shardFold:
			if cfg.ProcessHook != nil {
				cfg.ProcessHook(sh.id, seq, &t)
			}
			d.Process(t)
			d.SetCursor(seq)
			cursor = seq
			sinceSave++
			if (cfg.CheckpointEveryN > 0 && sinceSave >= cfg.CheckpointEveryN) ||
				time.Since(lastSave) >= cfg.CheckpointEvery {
				if err := checkpoint(false); err != nil {
					return err
				}
			}
		case shardCheckpoint:
			if err := checkpoint(false); err != nil {
				return err
			}
		case shardDrained:
			if err := checkpoint(true); err != nil {
				return err
			}
			sh.finish(inc, d)
			return nil
		case shardShutdown:
			// Cancellation: persist what we have, best-effort, and retire
			// with the partial dataset so Merged still works.
			if err := checkpoint(true); err != nil {
				sh.sup.logger.Warn("shard final checkpoint failed at shutdown", "shard", sh.id, "err", err)
			}
			sh.finish(inc, d)
			return nil
		}
	}
}

// monitor is the heartbeat watchdog: every pollEvery it exports health
// gauges, wakes idle shards so time-based checkpoints fire, and abandons
// incarnations that sit on pending work past HeartbeatTimeout.
func (s *Supervisor) monitor(stop <-chan struct{}) {
	tick := time.NewTicker(s.cfg.pollEvery())
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, sh := range s.shards {
			sh.mu.Lock()
			inc := sh.cur
			age := now.Sub(sh.lastBeat)
			pending := sh.inflight || sh.baseSeq+uint64(len(sh.buf)) > sh.pos+1
			if m := s.cfg.Metrics; m != nil {
				m.heartbeatAge.With(sh.label).Set(age.Seconds())
				m.bufferDepth.With(sh.label).Set(float64(len(sh.buf)))
			}
			stalled := inc != nil && pending && s.cfg.HeartbeatTimeout > 0 &&
				age > s.cfg.HeartbeatTimeout && !inc.crashed.Load()
			if stalled {
				inc.crashed.Store(true)
				close(inc.abandoned)
				sh.stalls++
			}
			sh.cond.Broadcast()
			sh.mu.Unlock()
			if stalled {
				if m := s.cfg.Metrics; m != nil {
					m.stalls.With(sh.label).Inc()
				}
				s.logger.Warn("abandoning stalled shard", "shard", sh.id, "heartbeatAge", age)
			}
		}
	}
}
