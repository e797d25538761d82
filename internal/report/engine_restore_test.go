package report

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"donorsense/internal/cluster"
	"donorsense/internal/gen"
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
	encode := func(ws *cluster.KMeansWarmState) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(engineWarmBlob{KMeans: ws}); err != nil {
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
// MarshalWarm blob. Every input must be refused with an error or
// restore a state that passes Validate — never panic — and the bytes
// the call allocates must stay within a fixed multiple of the input's
// size plus a constant for gob's type machinery.
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
	f.Fuzz(func(t *testing.T, b []byte) {
		e := &Engine{}
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
