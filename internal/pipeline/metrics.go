package pipeline

import (
	"time"

	"donorsense/internal/geo"
	"donorsense/internal/obs"
	"donorsense/internal/obs/trace"
)

// Pipeline stage labels for the stage-latency histogram.
const (
	StageIngest  = "ingest"  // extract + locate of one tweet; the fold is not timed
	StageExtract = "extract" // tokenize + Context × Subject matching
	StageLocate  = "locate"  // geo-tag reverse or profile geocode (cached)
)

// Metrics instruments the collection pipeline end to end: per-stage
// latency, per-outcome throughput, the USA-filter decision mix, geocode
// cache behaviour, dataset size gauges, and checkpoint durability. Every
// family is registered eagerly so the first scrape shows the complete
// schema with zero values.
type Metrics struct {
	tweets *obs.CounterVec // outcome: rejected | collected_non_us | collected_us
	stage  *obs.HistogramVec
	filter *obs.CounterVec // USA-filter decision causes

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheRotations *obs.Counter
	cacheEntries   *obs.Gauge

	geoSeconds     *obs.Histogram
	geoResolutions *obs.CounterVec // source: profile|gps, accuracy

	users          *obs.Gauge
	usTweets       *obs.Gauge
	totalCollected *obs.Gauge
	userstoreRows  *obs.Gauge
	userstoreBytes *obs.Gauge

	ckptSaves     *obs.Counter
	ckptErrors    *obs.Counter
	ckptSeconds   *obs.Histogram
	ckptBytes     *obs.Gauge
	ckptLast      *obs.Gauge
	ckptFallbacks *obs.Counter
}

// NewMetrics registers the pipeline metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		tweets: reg.CounterVec("donorsense_pipeline_tweets_total",
			"Tweets processed, by outcome (Table I's collected/retained split).", "outcome"),
		stage: reg.HistogramVec("donorsense_pipeline_stage_seconds",
			"Per-tweet processing latency by stage: extract, locate (in-context tweets only), and ingest = extract + locate. The in-order fold into the dataset is not timed.", nil, "stage"),
		filter: reg.CounterVec("donorsense_pipeline_usa_filter_total",
			"USA-filter decisions on in-context tweets, by cause.", "cause"),
		cacheHits: reg.Counter("donorsense_pipeline_geocode_cache_hits_total",
			"Profile-location geocode memo hits."),
		cacheMisses: reg.Counter("donorsense_pipeline_geocode_cache_misses_total",
			"Profile-location geocode memo misses (full geocode runs)."),
		cacheRotations: reg.Counter("donorsense_pipeline_geocode_cache_rotations_total",
			"Two-generation geocode memo rotations (a full generation aged out)."),
		cacheEntries: reg.Gauge("donorsense_pipeline_geocode_cache_entries",
			"Entries currently held across both geocode memo generations."),
		geoSeconds: reg.Histogram("donorsense_geo_resolve_seconds",
			"Gazetteer resolution latency (cache misses and GPS points only).", nil),
		geoResolutions: reg.CounterVec("donorsense_geo_resolutions_total",
			"Gazetteer resolutions, by source and resulting accuracy.", "source", "accuracy"),
		users: reg.Gauge("donorsense_pipeline_users",
			"Retained US users (Table I)."),
		usTweets: reg.Gauge("donorsense_pipeline_us_tweets",
			"Retained US tweets (Table I)."),
		totalCollected: reg.Gauge("donorsense_pipeline_collected_tweets",
			"In-context tweets collected, US or not (Table I)."),
		userstoreRows: reg.Gauge("donorsense_userstore_rows",
			"Rows (retained users) in the columnar user store."),
		userstoreBytes: reg.Gauge("donorsense_userstore_bytes",
			"Retained bytes of the columnar user store: columns, hash index, and state bitsets."),
		ckptSaves: reg.Counter("donorsense_checkpoint_saves_total",
			"Checkpoint snapshots published successfully."),
		ckptErrors: reg.Counter("donorsense_checkpoint_errors_total",
			"Checkpoint saves that failed."),
		ckptSeconds: reg.Histogram("donorsense_checkpoint_save_seconds",
			"Wall time of one checkpoint save (serialize + fsync + rename).", nil),
		ckptBytes: reg.Gauge("donorsense_checkpoint_bytes",
			"Size of the last published checkpoint snapshot."),
		ckptLast: reg.Gauge("donorsense_checkpoint_last_save_timestamp_seconds",
			"Unix time of the last successful checkpoint save."),
		ckptFallbacks: reg.Counter("donorsense_checkpoint_fallbacks_total",
			"Checkpoint loads that fell back to the last-good .bak snapshot."),
	}
}

// CheckpointFallback counts one checkpoint load that LoadCheckpointFallback
// restored from the .bak backup. A nil m counts nothing.
func (m *Metrics) CheckpointFallback() {
	if m != nil {
		m.ckptFallbacks.Inc()
	}
}

// SetMetrics attaches the instruments to the dataset: stage timers and
// outcome counters on every ingest path, hit/miss/rotation on the geocode memo, and
// resolution observations on the geocoder. Call before processing; pass
// nil to detach.
func (d *Dataset) SetMetrics(m *Metrics) {
	d.metrics = m
	if m == nil {
		d.locCache.setOnRotate(nil)
		d.geocoder.OnLocate = nil
		d.geocoder.OnReverse = nil
		return
	}
	d.locCache.setOnRotate(m.cacheRotations.Inc)
	d.geocoder.OnLocate = func(loc geo.Location, dur time.Duration) {
		m.geoSeconds.Observe(dur.Seconds())
		m.geoResolutions.With("profile", loc.Accuracy.String()).Inc()
	}
	d.geocoder.OnReverse = func(loc geo.Location, ok bool, dur time.Duration) {
		m.geoSeconds.Observe(dur.Seconds())
		acc := loc.Accuracy.String()
		if !ok {
			acc = "none"
		}
		m.geoResolutions.With("gps", acc).Inc()
	}
	// Seed the size gauges so a resumed dataset reports its restored
	// state before the first processed tweet.
	m.updateSizes(d)
}

// observe records one folded tweet: its outcome, its prepare-stage
// timings, and, for in-context tweets, the locate time and the
// USA-filter cause. A sampled tweet pins its trace ID as the
// histograms' exemplar. The caller refreshes the size gauges (updateSizes)
// once per folded batch.
func (m *Metrics) observe(o Outcome, p *prepared, hadGPS bool, tc trace.SpanContext) {
	ex := exemplarID(tc)
	m.tweets.With(outcomeLabel(o)).Inc()
	m.stage.With(StageExtract).ObserveExemplar(p.dExtract.Seconds(), ex)
	m.stage.With(StageIngest).ObserveExemplar((p.dExtract + p.dLocate).Seconds(), ex)
	if o != Rejected {
		m.stage.With(StageLocate).ObserveExemplar(p.dLocate.Seconds(), ex)
		m.filter.With(filterCause(hadGPS, p.loc, p.viaGeoTag)).Inc()
	}
}

// updateSizes refreshes the dataset size gauges, including the columnar
// store's row count and retained-byte footprint.
func (m *Metrics) updateSizes(d *Dataset) {
	m.users.Set(float64(d.store.Len()))
	m.usTweets.Set(float64(d.usTweets))
	m.totalCollected.Set(float64(d.totalCollected))
	m.cacheEntries.Set(float64(d.locCache.len()))
	m.userstoreRows.Set(float64(d.store.Len()))
	m.userstoreBytes.Set(float64(d.store.SizeBytes()))
}

// StoreSizes returns the userstore rows and bytes gauges as updateSizes
// last set them. It reads only the gauges, so any goroutine may call it
// while the dataset's owner keeps folding.
func (m *Metrics) StoreSizes() (rows, bytes int64) {
	return int64(m.userstoreRows.Value()), int64(m.userstoreBytes.Value())
}

// outcomeLabel maps an Outcome to its metric label (snake_case, stable).
func outcomeLabel(o Outcome) string {
	switch o {
	case Rejected:
		return "rejected"
	case CollectedNonUS:
		return "collected_non_us"
	case CollectedUS:
		return "collected_us"
	}
	return "unknown"
}

// filterCause classifies one USA-filter decision for the cause counter.
func filterCause(hadGPS bool, loc geo.Location, viaGeoTag bool) string {
	switch {
	case viaGeoTag:
		return "geotag_us"
	case hadGPS:
		return "geotag_foreign"
	case loc.IsUSState():
		return "profile_us"
	case loc.Country == "US":
		return "profile_us_unlocated" // "USA" with no resolvable state
	case loc.Accuracy == geo.AccuracyNone:
		return "profile_unresolved"
	default:
		return "profile_foreign"
	}
}
