package report

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"donorsense/internal/cluster"
	"donorsense/internal/obs"
	"donorsense/internal/organ"
)

// EngineMetrics instruments the incremental engine: refresh latency, the
// attention epoch, and the rows applied by the last refresh. Attach via
// Engine.SetMetrics.
type EngineMetrics struct {
	refresh *obs.Histogram
	epoch   *obs.Gauge
	dirty   *obs.Gauge
}

// NewEngineMetrics registers the analytics metric families on reg.
func NewEngineMetrics(reg *obs.Registry) *EngineMetrics {
	return &EngineMetrics{
		refresh: reg.Histogram("donorsense_analytics_refresh_seconds",
			"Incremental analysis refresh latency (delta drain through full report assembly).",
			obs.ExpBuckets(0.001, 2, 14)),
		epoch: reg.Gauge("donorsense_analytics_epoch",
			"Attention matrix epoch: patches applied since the last cold build."),
		dirty: reg.Gauge("donorsense_analytics_dirty_rows",
			"User rows applied by the last analysis refresh."),
	}
}

// engineWarmBlob is the gob shape of the persisted clustering warm state
// — the checkpoint v4 analytics payload. Only the K-Means state is worth
// persisting: it is O(users); the pairwise cache is O(states²) and
// rebuilds in microseconds.
type engineWarmBlob struct {
	KMeans *cluster.KMeansWarmState
}

// MarshalWarm serializes the clustering warm state for checkpointing
// (Dataset.SetAnalyticsState). Returns nil when there is nothing to
// persist yet.
func (e *Engine) MarshalWarm() ([]byte, error) {
	if e.kmWarm == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(engineWarmBlob{KMeans: e.kmWarm}); err != nil {
		return nil, fmt.Errorf("report: marshal warm state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreWarm loads a blob produced by MarshalWarm, seeding the next
// refresh's K-Means resume. A blob that does not decode, or decodes to
// a state that is not internally consistent — k < 1, a dimension other
// than organ.Count, slices of disagreeing lengths, labels outside
// [-1, k), non-finite centroids, or negative or non-finite bounds — is
// refused with an error and leaves the engine as it was, so callers can
// ignore it and cold-start. A state that is consistent but stale (a
// different row count) is safe to restore: KMeansDenseWarm cold-starts
// when it does not fit the data. A nil/empty blob is a no-op.
func (e *Engine) RestoreWarm(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	var blob engineWarmBlob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&blob); err != nil {
		return fmt.Errorf("report: restore warm state: %w", err)
	}
	ws := blob.KMeans
	if ws == nil {
		return fmt.Errorf("report: restore warm state: no clustering state")
	}
	if ws.Dim != organ.Count {
		return fmt.Errorf("report: restore warm state: dimension %d, want %d organs", ws.Dim, organ.Count)
	}
	if err := ws.Validate(); err != nil {
		return fmt.Errorf("report: restore warm state: %w", err)
	}
	e.kmWarm = ws
	return nil
}
