package report

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"strings"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/mat"
	"donorsense/internal/obs"
	"donorsense/internal/organ"
)

// EngineMetrics instruments the incremental engine: refresh latency and
// its per-stage split, the attention epoch, and the rows applied by the
// last refresh. Attach via Engine.SetMetrics.
type EngineMetrics struct {
	refresh *obs.Histogram
	stages  [numStages]*obs.Histogram
	epoch   *obs.Gauge
	dirty   *obs.Gauge
}

// NewEngineMetrics registers the analytics metric families on reg.
func NewEngineMetrics(reg *obs.Registry) *EngineMetrics {
	m := &EngineMetrics{
		refresh: reg.Histogram("donorsense_analytics_refresh_seconds",
			"Incremental analysis refresh latency (delta drain through full report assembly).",
			obs.ExpBuckets(0.001, 2, 14)),
		epoch: reg.Gauge("donorsense_analytics_epoch",
			"Attention matrix epoch: patches applied since the last cold build."),
		dirty: reg.Gauge("donorsense_analytics_dirty_rows",
			"User rows applied by the last analysis refresh."),
	}
	stage := reg.HistogramVec("donorsense_analyze_stage_seconds",
		"Per-stage analysis refresh latency (patch, characterize, kmeans, assemble).",
		nil, "stage")
	for i, attr := range stageAttrs {
		m.stages[i] = stage.With(strings.TrimSuffix(attr, "_us"))
	}
	return m
}

// engineWarmBlob is the gob shape of the engine's persisted state, the
// checkpoint's analytics blob. KMeans is the clustering warm state, its
// rows in ascending user-id order. Carry, when present, is the rest of
// the engine's exact state, so a restart over the dataset it describes
// rebuilds only Û. The pairwise cache is O(states²) and rebuilds in
// microseconds, so it is not persisted.
type engineWarmBlob struct {
	KMeans *warmKMeans
	Carry  *engineCarry
}

// warmKMeans is the persisted cluster.KMeansWarmState. RawUpper and
// RawLower hold the bounds as raw little-endian float64s: decoding them
// through gob's per-float encoding took most of a restore. The blobs of
// v4 checkpoints hold them in Upper and Lower instead, and still decode.
type warmKMeans struct {
	K, Dim             int
	Centroids          []float64
	Labels             []int32
	RawUpper, RawLower rawFloat64s
	Upper, Lower       []float64
}

// rawFloat64s is a float64 column that gob carries as raw little-endian
// bytes. gob hands UnmarshalBinary a view of its own buffer, so the
// column decodes in one pass, with no per-float decode and no copy.
type rawFloat64s []float64

// MarshalBinary encodes the column as raw little-endian bytes.
func (c rawFloat64s) MarshalBinary() ([]byte, error) {
	b := make([]byte, 8*len(c))
	for i, v := range c {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b, nil
}

// UnmarshalBinary decodes MarshalBinary's form.
func (c *rawFloat64s) UnmarshalBinary(b []byte) error {
	if len(b)%8 != 0 {
		return fmt.Errorf("float64 column of %d bytes", len(b))
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*c = v
	return nil
}

// engineCarry is the engine's exact state beside the clustering, as a
// refresh left it: the integer accumulators behind Table I and Figures
// 2 and 5, Equation 3's exact group sums behind Figures 3 and 4, the
// K-Means exact moments, and Rows, the store rows of Û in ascending id
// order, so a restart gathers Û without a sort. It describes the
// dataset whose USTweets and Users it records, and is used for no
// other.
type engineCarry struct {
	USTweets, Users int
	Rows            []int32
	Mentions        core.MentionAccum
	Cells           *core.StateOrganCells
	Organs, Regions *core.GroupSums
	KSums, KSqNorms []mat.Exact
	KCounts         []int
}

// The paths RestoreWarm can take, as Restored reports them.
const (
	RestoreNone       = "none"            // no blob, or one refused: the first Refresh is a cold build
	RestoreClustering = "clustering only" // the K-Means state seeds a cold build's clustering
	RestoreCarried    = "carried"         // the engine is warm: the first Refresh is incremental
)

// MarshalWarm serializes the engine's warm state for checkpointing
// (Dataset.SetAnalyticsState). Returns nil when there is nothing to
// persist yet. The K-Means rows are written in ascending user-id order,
// the order a restart lays Û out in, whatever order the live Û has
// reached. The exact state (engineCarry) rides along only when the
// dataset has no undrained rows, so that it describes the store the
// checkpoint saves; a caller that wants it refreshes first.
func (e *Engine) MarshalWarm() ([]byte, error) {
	ws := e.kmWarm
	if ws == nil {
		return nil, nil
	}
	var blob engineWarmBlob
	if e.att != nil && len(ws.Labels) == e.att.Users() {
		byID := e.att.RowsByID()
		blob.Carry = e.carry(byID)
		ws = ws.Reorder(byID)
	}
	blob.KMeans = packKMeans(ws)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return nil, fmt.Errorf("report: marshal warm state: %w", err)
	}
	return buf.Bytes(), nil
}

// carry captures the exact state for MarshalWarm; byID lists Û's rows
// in ascending id order. It is nil when the store has changed since the
// last refresh, or when part of the state is missing.
func (e *Engine) carry(byID []int32) *engineCarry {
	sums, sqNorms, counts := e.kmWarm.Moments()
	if e.acc == nil || counts == nil || e.d.DirtyRows() > 0 {
		return nil
	}
	src, err := e.d.AttentionSources()
	if err != nil || len(src) != len(byID) {
		return nil
	}
	ids := e.att.UserIDs()
	for i, row := range src {
		if id, _, _ := e.d.UserAt(uint32(row)); id != ids[byID[i]] {
			return nil
		}
	}
	return &engineCarry{
		USTweets: e.d.USTweets(), Users: e.d.Users(),
		Rows:     src,
		Mentions: e.acc.ment, Cells: e.acc.cells,
		Organs: e.acc.orgSums, Regions: e.acc.regSums,
		KSums: sums, KSqNorms: sqNorms, KCounts: counts,
	}
}

// packKMeans is the persisted form of a state whose bounds are plain.
func packKMeans(ws *cluster.KMeansWarmState) *warmKMeans {
	return &warmKMeans{K: ws.K, Dim: ws.Dim, Centroids: ws.Centroids, Labels: ws.Labels, RawUpper: ws.Upper, RawLower: ws.Lower}
}

// state unpacks the persisted form; a blob holds its bounds in one form
// only.
func (w *warmKMeans) state() (*cluster.KMeansWarmState, error) {
	ws := &cluster.KMeansWarmState{
		K: w.K, Dim: w.Dim, Centroids: w.Centroids, Labels: w.Labels,
		Upper: w.Upper, Lower: w.Lower,
	}
	if w.RawUpper != nil || w.RawLower != nil {
		if w.Upper != nil || w.Lower != nil {
			return nil, fmt.Errorf("bounds in two forms")
		}
		ws.Upper, ws.Lower = w.RawUpper, w.RawLower
	}
	return ws, nil
}

// RestoreWarm loads a blob produced by MarshalWarm into an engine that
// has not refreshed, over a freshly loaded dataset, and drops the
// dataset's copy of the blob (SetAnalyticsState(nil)) once it is
// decoded: a later save writes a fresh one. Restored reports the path
// it took.
//
// When the blob carries the exact state and the dataset still has the
// USTweets and Users it recorded, the engine leaves warm: Û is gathered
// from the store in the carried order, and the first Refresh is
// incremental. Otherwise only the K-Means state is kept, seeding the
// first Refresh's cold build (Û in id order, aligned with the blob); a
// state whose row count no longer fits is safe, because
// cluster.KMeansWarm cold-starts when it does not fit the data.
//
// A blob that does not decode, or decodes to a state that is not
// internally consistent, is refused with an error and leaves the engine
// as it was, so callers can ignore it and cold-start. Inconsistent
// K-Means states are k < 1, a dimension other than organ.Count, slices
// of disagreeing lengths, labels outside [-1, k), non-finite centroids,
// or negative or non-finite bounds; an inconsistent carried state is
// one whose Û rows are not the store's users in id order, or whose
// counts disagree with the labels or with Û's row count. A nil/empty
// blob is a no-op.
//
// Any byte string is safe to pass: decoding never panics, and it
// allocates at most a small multiple of len(b) (see checkWarmBlob) plus
// Û's own size.
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
	if blob.KMeans == nil {
		return fmt.Errorf("report: restore warm state: no clustering state")
	}
	ws, err := blob.KMeans.state()
	if err != nil {
		return fmt.Errorf("report: restore warm state: %w", err)
	}
	if ws.Dim != organ.Count {
		return fmt.Errorf("report: restore warm state: dimension %d, want %d organs", ws.Dim, organ.Count)
	}
	if err := ws.Validate(); err != nil {
		return fmt.Errorf("report: restore warm state: %w", err)
	}
	var warm *Engine
	if c := blob.Carry; c != nil && e.d != nil && c.USTweets == e.d.USTweets() && c.Users == e.d.Users() {
		if warm, err = e.restoreCarry(c, ws); err != nil {
			return fmt.Errorf("report: restore warm state: %w", err)
		}
	}
	e.reset()
	e.kmWarm = ws
	e.restored = RestoreClustering
	if warm != nil {
		e.att, e.states, e.acc, e.organs, e.regions = warm.att, warm.states, warm.acc, warm.organs, warm.regions
		e.restored = RestoreCarried
	}
	if e.d != nil {
		e.d.SetAnalyticsState(nil)
	}
	return nil
}

// restoreCarry rebuilds the warm engine state from a carried one and
// the K-Means state ws, checking it against the dataset; on success it
// installs the carried moments in ws and returns the state in an
// otherwise empty Engine.
func (e *Engine) restoreCarry(c *engineCarry, ws *cluster.KMeansWarmState) (*Engine, error) {
	if c.Rows == nil || c.Cells == nil || c.Organs == nil || c.Regions == nil {
		return nil, fmt.Errorf("carried state incomplete")
	}
	att, states, err := e.d.BuildAttentionStates(c.Rows)
	if err != nil {
		return nil, fmt.Errorf("carried rows: %w", err)
	}
	users := att.Users()
	if len(ws.Labels) != users {
		return nil, fmt.Errorf("clustering of %d rows for %d users", len(ws.Labels), users)
	}
	w := &Engine{d: e.d, att: att, states: states, acc: &accumulators{
		ment: c.Mentions, cells: c.Cells, orgSums: c.Organs, regSums: c.Regions,
	}}
	if err := w.characterize(); err != nil {
		return nil, err
	}
	var multi, pairs, perOrgan, organSizes int64
	for k, n := range c.Mentions.MultiUsers {
		if n < 0 || c.Mentions.PerOrgan[k] < 0 {
			return nil, fmt.Errorf("carried mention counts %+v", c.Mentions)
		}
		multi += n
		pairs += int64(k+1) * n
		perOrgan += c.Mentions.PerOrgan[k]
	}
	for _, n := range w.organs.GroupSizes {
		organSizes += int64(n)
	}
	if multi != int64(users) || organSizes != int64(users) || pairs != c.Mentions.DistinctPairs || perOrgan != pairs {
		return nil, fmt.Errorf("carried counts (%d users by organs mentioned, %d by primary organ, %d and %d mention pairs) disagree with %d rows",
			multi, organSizes, pairs, perOrgan, users)
	}
	inState := make([]int, len(w.regions.GroupSizes))
	for _, s := range states {
		if s >= 0 {
			inState[s]++
		}
	}
	if !slices.Equal(inState, w.regions.GroupSizes) {
		return nil, fmt.Errorf("carried state sizes disagree with the rows' states")
	}
	if err := ws.SetMoments(c.KSums, c.KSqNorms, c.KCounts); err != nil {
		return nil, err
	}
	return w, nil
}

// Restored reports the path the last RestoreWarm took: RestoreNone,
// RestoreClustering or RestoreCarried.
func (e *Engine) Restored() string { return e.restored }

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
