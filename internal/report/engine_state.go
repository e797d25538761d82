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
//
// Any byte string is safe to pass: decoding never panics, and it
// allocates at most a small multiple of len(b) (see checkWarmBlob).
func (e *Engine) RestoreWarm(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if err := checkWarmBlob(b); err != nil {
		return fmt.Errorf("report: restore warm state: %w", err)
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

// probeBlobMax is the blob size below which checkWarmBlob dry-runs the
// decode. gob sizes a slice from the count it declares, capped at
// 10 MiB per slice (Go's internal saferio limit), before it reads the
// elements; a blob of probeBlobMax bytes or more already bounds that
// preallocation to a few times its own size.
const probeBlobMax = 8 << 20

// checkWarmBlob bounds what decoding a warm blob can allocate. Every
// gob message must fit in the bytes that follow its length prefix, so
// no message buffer is sized beyond the input. A smaller blob is first
// decoded into a shape without slices: gob then skips each slice's
// elements without allocating and refuses a count longer than the data
// behind it, so the real decode never sizes a slice from a count the
// input cannot back.
func checkWarmBlob(b []byte) error {
	for rest := b; len(rest) > 0; {
		n, w := gobUint(rest)
		if w == 0 || n > uint64(len(rest)-w) {
			return fmt.Errorf("gob message length runs past the %d-byte blob", len(b))
		}
		rest = rest[w+int(n):]
	}
	if len(b) >= probeBlobMax {
		return nil
	}
	var probe struct{ KMeans *struct{ K int } }
	return gob.NewDecoder(bytes.NewReader(b)).Decode(&probe)
}

// gobUint decodes gob's unsigned-integer encoding at the start of b —
// one byte below 0x80, or a negated byte count followed by that many
// big-endian bytes — returning the value and its width (0 if b is too
// short or the count is not 1 to 8).
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		return 0, 0
	}
	var v uint64
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n
}
