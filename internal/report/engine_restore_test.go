package report

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"donorsense/internal/cluster"
	"donorsense/internal/core"
	"donorsense/internal/gen"
	"donorsense/internal/geo"
	"donorsense/internal/pipeline"
)

// TestRestoreWarmRejectsBadShapes feeds RestoreWarm blobs that decode
// but describe an inconsistent K-Means state. Each must be refused with
// an error, leave the engine cold, and let the next Refresh succeed by
// cold-starting — instead of failing the first Refresh.
func TestRestoreWarmRejectsBadShapes(t *testing.T) {
	corpus := gen.Generate(gen.DefaultConfig(0.01))
	cfg := engineTestConfig()
	d := pipeline.NewDataset()
	for _, tw := range corpus.Tweets {
		d.Process(tw)
	}
	e := NewEngine(d, cfg)
	if _, err := e.Refresh(); err != nil {
		t.Fatal(err)
	}
	good := e.kmWarm
	clone := func() *cluster.KMeansWarmState {
		return &cluster.KMeansWarmState{
			K: good.K, Dim: good.Dim,
			Centroids: append([]float64(nil), good.Centroids...),
			Labels:    append([]int32(nil), good.Labels...),
			Upper:     append([]float64(nil), good.Upper...),
			Lower:     append([]float64(nil), good.Lower...),
		}
	}
	// encode writes the bounds as v4 blobs did; "bounds short" breaks
	// the v5 form.
	encode := func(ws *cluster.KMeansWarmState) []byte {
		var blob engineWarmBlob
		if ws != nil {
			blob.KMeans = &warmKMeans{K: ws.K, Dim: ws.Dim, Centroids: ws.Centroids, Labels: ws.Labels, Upper: ws.Upper, Lower: ws.Lower}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := map[string]func(ws *cluster.KMeansWarmState){
		"k = 0":             func(ws *cluster.KMeansWarmState) { ws.K = 0 },
		"dim ≠ organs":      func(ws *cluster.KMeansWarmState) { ws.Dim = 5; ws.Centroids = ws.Centroids[:ws.K*5] },
		"centroids short":   func(ws *cluster.KMeansWarmState) { ws.Centroids = ws.Centroids[1:] },
		"upper short":       func(ws *cluster.KMeansWarmState) { ws.Upper = ws.Upper[1:] },
		"lower short":       func(ws *cluster.KMeansWarmState) { ws.Lower = ws.Lower[1:] },
		"label ≥ k":         func(ws *cluster.KMeansWarmState) { ws.Labels[0] = int32(ws.K) },
		"label < -1":        func(ws *cluster.KMeansWarmState) { ws.Labels[0] = -7 },
		"NaN centroid":      func(ws *cluster.KMeansWarmState) { ws.Centroids[0] = math.NaN() },
		"infinite centroid": func(ws *cluster.KMeansWarmState) { ws.Centroids[0] = math.Inf(1) },
		"NaN upper":         func(ws *cluster.KMeansWarmState) { ws.Upper[0] = math.NaN() },
		"negative upper":    func(ws *cluster.KMeansWarmState) { ws.Upper[0] = -1 },
		"infinite lower":    func(ws *cluster.KMeansWarmState) { ws.Lower[0] = math.Inf(1) },
		"negative lower":    func(ws *cluster.KMeansWarmState) { ws.Lower[0] = -1e-3 },
	}
	for name, breakState := range cases {
		ws := clone()
		breakState(ws)
		fresh := NewEngine(d, cfg)
		if err := fresh.RestoreWarm(encode(ws)); err == nil {
			t.Fatalf("%s: RestoreWarm accepted the blob", name)
		}
		if fresh.kmWarm != nil {
			t.Fatalf("%s: refused blob still seeded the engine", name)
		}
		if _, err := fresh.Refresh(); err != nil {
			t.Fatalf("%s: first Refresh after a refused blob: %v", name, err)
		}
	}
	if err := NewEngine(d, cfg).RestoreWarm(encode(nil)); err == nil {
		t.Fatal("blob without a clustering state accepted")
	}
	short := packKMeans(clone())
	short.RawLower = short.RawLower[1:]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(engineWarmBlob{KMeans: short}); err != nil {
		t.Fatal(err)
	}
	if err := NewEngine(d, cfg).RestoreWarm(buf.Bytes()); err == nil {
		t.Fatal("bounds short: RestoreWarm accepted the blob")
	}

	// The untouched state still round-trips.
	fresh := NewEngine(d, cfg)
	if err := fresh.RestoreWarm(encode(clone())); err != nil {
		t.Fatalf("valid blob refused: %v", err)
	}
	if _, err := fresh.Refresh(); err != nil {
		t.Fatal(err)
	}
}

// FuzzRestoreWarm feeds RestoreWarm arbitrary bytes, seeded with a real
// MarshalWarm blob — the v5 form, carrying the exact state of the
// dataset the engine runs over — and the same K-Means state as a v4
// blob wrote it. Every input must be refused with an error or restore a
// state that passes Validate — never panic — and the bytes the call
// allocates must stay within a fixed multiple of the input's size plus
// a constant for gob's type machinery and the small dataset's Û.
func FuzzRestoreWarm(f *testing.F) {
	d := pipeline.SynthDataset(300, 1)
	cfg := engineTestConfig()
	cfg.KUsers = 4
	e := NewEngine(d, cfg)
	if _, err := e.Refresh(); err != nil {
		f.Fatal(err)
	}
	blob, err := e.MarshalWarm()
	if err != nil || len(blob) == 0 {
		f.Fatalf("seed blob: %d bytes, %v", len(blob), err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte("not gob"))
	f.Add([]byte{0xfc, 0x00, 0x90, 0x00, 0x00, 0x01}) // a 9 MiB message length
	var v4 bytes.Buffer
	if err := gob.NewEncoder(&v4).Encode(struct{ KMeans *cluster.KMeansWarmState }{e.kmWarm}); err != nil {
		f.Fatal(err)
	}
	f.Add(v4.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		e := NewEngine(d, cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := e.RestoreWarm(b)
		runtime.ReadMemStats(&after)
		if err == nil && e.kmWarm != nil {
			if verr := e.kmWarm.Validate(); verr != nil {
				t.Fatalf("restored a state that fails Validate: %v", verr)
			}
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(b)+1<<20); got > limit {
			t.Fatalf("%d-byte blob allocated %d bytes, limit %d", len(b), got, limit)
		}
	})
}

// TestEngineRestartAfterChurn drives a warm engine through inserts and
// through users whose new tweets move them to another organ group, so
// its Û and K-Means rows are far from id order, then
// restarts it the way the collector does: MarshalWarm, SaveCheckpoint,
// LoadCheckpoint, NewEngine + RestoreWarm, first Refresh. The restarted
// clustering must resume from the blob rather than fall back to a cold
// run, and give every user the cluster the live engine gave it.
func TestEngineRestartAfterChurn(t *testing.T) {
	tweets := gen.Generate(gen.DefaultConfig(0.05)).Tweets
	cfg := engineTestConfig()
	d := pipeline.NewDataset()
	e := NewEngine(d, cfg)
	refresh := func() *Analysis {
		t.Helper()
		a, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	third := len(tweets) / 3
	for _, tw := range tweets[:third] {
		d.Process(tw)
	}
	refresh()
	for i, tw := range tweets[third : 2*third] {
		d.Process(tw)
		if i%700 == 699 {
			refresh()
		}
	}
	for i := 0; i < 3; i++ {
		moveOrganGroups(t, d, 200, 1<<60+int64(i)<<40)
		refresh()
	}
	live := refresh()
	if slices.IsSorted(live.Attention.UserIDs()) {
		t.Fatal("fixture drifted: Û rows in id order")
	}

	blob, err := e.MarshalWarm()
	if err != nil {
		t.Fatal(err)
	}
	d.SetAnalyticsState(blob)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := d.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	d2, err := pipeline.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(d2, cfg)
	if err := e2.RestoreWarm(d2.AnalyticsState()); err != nil {
		t.Fatal(err)
	}
	restored := e2.kmWarm
	got, err := e2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if e2.kmWarm != restored {
		t.Fatal("the restarted clustering fell back to a cold run")
	}
	if !reflect.DeepEqual(clustersByID(got), clustersByID(live)) {
		t.Fatal("a user's cluster changed across the restart")
	}
}

// churnedCheckpoint drives a warm engine over a generated corpus of the
// given seed through inserts and organ-group moves, so that its Û and
// K-Means rows are far from id order, and returns the dataset, the
// engine and the checkpoint it saves with its warm state.
func churnedCheckpoint(t *testing.T, seed uint64) (*pipeline.Dataset, *Engine, []byte) {
	t.Helper()
	gcfg := gen.DefaultConfig(0.03)
	gcfg.Seed = seed
	tweets := gen.Generate(gcfg).Tweets
	d := pipeline.NewDataset()
	e := NewEngine(d, engineTestConfig())
	refresh := func() {
		t.Helper()
		if _, err := e.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	half := len(tweets) / 2
	for _, tw := range tweets[:half] {
		d.Process(tw)
	}
	refresh()
	for i, tw := range tweets[half:] {
		d.Process(tw)
		if i%500 == 499 {
			refresh()
		}
	}
	for i := 0; i < 2; i++ {
		moveOrganGroups(t, d, 150, 1<<60+int64(seed)<<44+int64(i)<<40)
		refresh()
	}
	blob, err := e.MarshalWarm()
	if err != nil {
		t.Fatal(err)
	}
	d.SetAnalyticsState(blob)
	var buf bytes.Buffer
	if err := d.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return d, e, buf.Bytes()
}

// restartFrom loads ckpt and restores an engine from blob (the
// checkpoint's own when nil), requiring the restore path want, and
// returns the dataset and the first refresh.
func restartFrom(t *testing.T, ckpt, blob []byte, want string) (*pipeline.Dataset, *Analysis) {
	t.Helper()
	d, err := pipeline.ReadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		blob = d.AnalyticsState()
	}
	e := NewEngine(d, engineTestConfig())
	if err := e.RestoreWarm(blob); err != nil {
		t.Fatal(err)
	}
	if e.Restored() != want {
		t.Fatalf("restore took the %q path, want %q", e.Restored(), want)
	}
	if d.AnalyticsState() != nil {
		t.Fatal("the dataset still holds the decoded blob")
	}
	a, err := e.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, cold := e.LastRefresh(); cold != (want != RestoreCarried) {
		t.Fatalf("%s restore: first refresh cold = %v", want, cold)
	}
	return d, a
}

// reblob re-encodes a warm blob after edit changes its decoded form.
func reblob(t *testing.T, b []byte, edit func(*engineWarmBlob)) []byte {
	t.Helper()
	var blob engineWarmBlob
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&blob); err != nil {
		t.Fatal(err)
	}
	edit(&blob)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestartCarryMatchesFallback: after a restart from a churned
// engine's checkpoint, the first Refresh through the carried state must
// equal, bit for bit, the one through the same blob with the carry
// stripped — Û, Table I, Figures 2–6, and Figure 7's labels, centroids
// and inertia — and so must the one through the same K-Means state
// written as a v4 blob. Table I and Figures 2–6 must also equal a cold
// Analyze.
func TestRestartCarryMatchesFallback(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			_, _, ckpt := churnedCheckpoint(t, seed)
			d, carried := restartFrom(t, ckpt, nil, RestoreCarried)
			blob := func() []byte {
				d, err := pipeline.ReadCheckpoint(bytes.NewReader(ckpt))
				if err != nil {
					t.Fatal(err)
				}
				return d.AnalyticsState()
			}()
			stripped := reblob(t, blob, func(b *engineWarmBlob) { b.Carry = nil })
			_, fallback := restartFrom(t, ckpt, stripped, RestoreClustering)
			if !slices.Equal(carried.Attention.UserIDs(), fallback.Attention.UserIDs()) {
				t.Fatal("Û rows in another order")
			}
			compareAnalyses(t, carried, fallback)

			var ws *cluster.KMeansWarmState
			reblob(t, stripped, func(b *engineWarmBlob) {
				ws = &cluster.KMeansWarmState{K: b.KMeans.K, Dim: b.KMeans.Dim, Centroids: b.KMeans.Centroids,
					Labels: b.KMeans.Labels, Upper: b.KMeans.RawUpper, Lower: b.KMeans.RawLower}
			})
			var v4 bytes.Buffer
			if err := gob.NewEncoder(&v4).Encode(struct{ KMeans *cluster.KMeansWarmState }{ws}); err != nil {
				t.Fatal(err)
			}
			_, migrated := restartFrom(t, ckpt, v4.Bytes(), RestoreClustering)
			compareAnalyses(t, migrated, fallback)

			want, err := Analyze(d, engineTestConfig())
			if err != nil {
				t.Fatal(err)
			}
			compareFigures(t, carried, want)
		})
	}
}

// TestRestartFallsBackOnStaleCarry: a carried state that no longer
// describes the loaded store — a fold between MarshalWarm and the save,
// or between the load and RestoreWarm — falls back to the K-Means seed,
// and one whose counts disagree with its labels or its rows is refused.
// Every case still serves Analyze's Table I and Figures 2–6.
func TestRestartFallsBackOnStaleCarry(t *testing.T) {
	d, e, ckpt := churnedCheckpoint(t, 3)
	extra := gen.Generate(gen.DefaultConfig(0.002)).Tweets
	check := func(what string, d *pipeline.Dataset, a *Analysis) {
		t.Helper()
		want, err := Analyze(d, engineTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(what, func(t *testing.T) { compareFigures(t, a, want) })
	}

	// A fold after the last refresh: MarshalWarm drops the carry, and a
	// blob marshalled before the fold is stale by the save.
	before, err := e.MarshalWarm()
	if err != nil {
		t.Fatal(err)
	}
	for _, tw := range extra {
		d.Process(tw)
	}
	after, err := e.MarshalWarm()
	if err != nil {
		t.Fatal(err)
	}
	reblob(t, after, func(b *engineWarmBlob) {
		if b.Carry != nil {
			t.Error("MarshalWarm carried the exact state over undrained rows")
		}
	})
	d.SetAnalyticsState(before)
	var stale bytes.Buffer
	if err := d.WriteCheckpoint(&stale); err != nil {
		t.Fatal(err)
	}
	d1, a1 := restartFrom(t, stale.Bytes(), nil, RestoreClustering)
	check("fold before the save", d1, a1)

	// A fold between the load and RestoreWarm.
	d2, err := pipeline.ReadCheckpoint(bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(d2, engineTestConfig())
	for _, tw := range extra {
		d2.Process(tw)
	}
	if err := e2.RestoreWarm(d2.AnalyticsState()); err != nil || e2.Restored() != RestoreClustering {
		t.Fatalf("fold before the restore: %q path, err %v", e2.Restored(), err)
	}
	a2, err := e2.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	check("fold before the restore", d2, a2)

	// Carried counts that disagree with the labels or with the rows.
	blob := func() []byte {
		d, err := pipeline.ReadCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		return d.AnalyticsState()
	}()
	for name, edit := range map[string]func(c *engineCarry){
		"cluster counts":       func(c *engineCarry) { c.KCounts[0]++; c.KCounts[1]-- },
		"users by organs":      func(c *engineCarry) { c.Mentions.MultiUsers[0]++ },
		"rows out of id order": func(c *engineCarry) { c.Rows[0], c.Rows[1] = c.Rows[1], c.Rows[0] },
		"a row left out":       func(c *engineCarry) { c.Rows = c.Rows[1:] },
		"state sizes":          func(c *engineCarry) { c.Regions = core.NewGroupSums(len(geo.StateCodes())) },
	} {
		bad := reblob(t, blob, func(b *engineWarmBlob) { edit(b.Carry) })
		d, err := pipeline.ReadCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(d, engineTestConfig())
		if err := e.RestoreWarm(bad); err == nil || e.Restored() != RestoreNone {
			t.Fatalf("%s: restore took the %q path, err %v; want refused", name, e.Restored(), err)
		}
		a, err := e.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		check(name, d, a)
	}
}
