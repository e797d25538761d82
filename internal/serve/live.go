package serve

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"donorsense/internal/obs"
	"donorsense/internal/obs/trace"
	"donorsense/internal/pipeline"
	"donorsense/internal/report"
)

// Live is the one live analysis step of collect -report-every, collect
// -serve and donorsense serve: refresh the incremental engine over the
// dataset, rank the top mentioners, publish the snapshot, and record the
// refresh for the log and the /statusz analytics section. It owns the
// engine, including the clustering warm state a checkpoint carries. Set
// the exported fields (Logger is required), then Load a dataset.
//
// Load, Step, Tick and SaveWarm run on the goroutine that owns the
// dataset, between folds: the publish deep-copies what the next refresh
// mutates in place. Status may run on any goroutine; it reads one
// atomic pointer.
type Live struct {
	Analysis  report.AnalysisConfig // the engine's, without the model-selection sweep
	Every     time.Duration         // Tick's cadence, shown as refresh_every
	Top       int                   // top mentioners each snapshot retains
	Publisher *Publisher            // nil = refresh only
	Metrics   *report.EngineMetrics // nil = no engine metrics
	Tracer    *trace.Tracer         // nil = no report.refresh spans
	Logger    *slog.Logger

	d      *pipeline.Dataset
	engine *report.Engine
	// last is when the last step ended (zero = none since Load); seen is
	// the dataset's folded-tweet count at the last good step (-1 = none),
	// so Tick knows whether anything was folded since.
	last  time.Time
	seen  int
	stats atomic.Pointer[liveStats] // the last good step; nil before one
}

// liveStats records one good step for the /statusz analytics section.
type liveStats struct {
	refreshes, epoch uint64
	dirty, users     int
	latency          time.Duration
	cold             bool
	at               time.Time
}

// Load points the step at d with a new engine over it, resumed from the
// clustering warm state d's checkpoint carried. The next Tick steps
// whenever d is non-empty, so a restored dataset is published at once.
func (l *Live) Load(d *pipeline.Dataset) {
	e := report.NewEngine(d, l.Analysis)
	if err := e.RestoreWarm(d.AnalyticsState()); err != nil {
		l.Logger.Warn("ignoring unreadable analytics warm state", "err", err)
	}
	e.SetTracer(l.Tracer)
	e.SetMetrics(l.Metrics)
	l.d, l.engine, l.last, l.seen = d, e, time.Time{}, -1
}

// Step refreshes, ranks, publishes and records once. An empty dataset
// has nothing to analyse, so Step leaves it unpublished.
func (l *Live) Step() error {
	if l.d.Users() == 0 {
		return nil
	}
	defer func() { l.last = time.Now() }()
	a, err := l.engine.Refresh()
	if err != nil {
		return fmt.Errorf("analysis refresh: %w", err)
	}
	if p := l.Publisher; p != nil {
		if _, err := p.Publish(a, Meta{
			Epoch:     l.engine.Epoch(),
			Refreshes: l.engine.Refreshes(),
			Top:       report.TopMentioners(l.d, l.Top),
		}); err != nil {
			return fmt.Errorf("snapshot publish: %w", err)
		}
	}
	l.seen = l.d.TotalCollected()
	st := &liveStats{refreshes: l.engine.Refreshes(), epoch: l.engine.Epoch(), users: l.d.Users(), at: time.Now()}
	st.dirty, st.latency, st.cold = l.engine.LastRefresh()
	l.stats.Store(st)
	l.Logger.Info("analysis refreshed",
		"epoch", st.epoch, "dirty_rows", st.dirty, "cold", st.cold,
		"latency", st.latency.Round(time.Microsecond).String(), "users", st.users)
	return nil
}

// Tick steps when the cadence has passed since the last step and tweets
// were folded since the last good one, or none has succeeded yet. An
// idle dataset is not republished, so its snapshot keeps its seq and
// ETag. A nil Live does nothing.
func (l *Live) Tick() {
	if l == nil || time.Since(l.last) < l.Every || l.d.TotalCollected() == l.seen {
		return
	}
	if err := l.Step(); err != nil {
		l.Logger.Warn("analysis step failed", "err", err)
	}
}

// SaveWarm stores the engine's clustering warm state in the dataset, so
// the next checkpoint save carries it and a resumed step's first refresh
// resumes instead of cold-starting. A nil Live does nothing.
func (l *Live) SaveWarm() {
	if l == nil {
		return
	}
	b, err := l.engine.MarshalWarm()
	if err != nil {
		l.Logger.Warn("analytics warm state not persisted", "err", err)
		return
	}
	l.d.SetAnalyticsState(b)
}

// Engine returns the step's engine (nil for a nil Live).
func (l *Live) Engine() *report.Engine {
	if l == nil {
		return nil
	}
	return l.engine
}

// Status is the /statusz analytics section: the cadence, the attention
// epoch and the cost of the last refresh. A nil Live reports it off.
func (l *Live) Status() obs.StatusSection {
	var sec obs.StatusSection
	if l == nil {
		sec.Field("enabled", false)
		return sec
	}
	sec.Field("enabled", true)
	sec.Field("refresh_every", l.Every.String())
	st := l.stats.Load()
	if st == nil {
		sec.Field("refreshes", 0)
		sec.Field("epoch", 0)
		sec.Field("age", "never refreshed this run")
		return sec
	}
	sec.Field("refreshes", st.refreshes)
	sec.Field("epoch", st.epoch)
	sec.Field("age", time.Since(st.at).Round(time.Second).String())
	sec.Field("last_dirty_rows", st.dirty)
	sec.Field("last_latency", st.latency.Round(time.Microsecond).String())
	sec.Field("last_cold", st.cold)
	sec.Field("users", st.users)
	return sec
}
